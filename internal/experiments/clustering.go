package experiments

import (
	"ctxsearch"
	"ctxsearch/internal/cluster"
	"ctxsearch/internal/search"
)

// ClusteringComparison measures the §6 contrast between automatically
// derived contexts (k-means over result snippets, Ferragina & Gulli) and
// the ontology-based contexts: for each query, the top keyword results are
// grouped both ways and scored for purity against the generator's
// ground-truth primary topics.
type ClusteringComparison struct {
	// Queries evaluated (those with enough results to cluster).
	Queries int
	// MeanClusterPurity is the k-means grouping's mean purity.
	MeanClusterPurity float64
	// MeanContextPurity is the purity of grouping the same results by
	// their best selected ontology context.
	MeanContextPurity float64
	// MeanClusters and MeanContexts are the mean group counts.
	MeanClusters, MeanContexts float64
}

// ClusteringVsContexts runs the comparison over the evaluation queries,
// clustering each query's top keyword results.
func (s *Setup) ClusteringVsContexts() ClusteringComparison {
	const topN = 60
	engine := s.Sys.Engine(s.TextOnTextSet)
	a := s.Sys.Analyzer()
	labels := map[ctxsearch.PaperID]string{}
	for _, p := range s.Sys.Corpus.Papers() {
		labels[p.ID] = string(p.Topics[0])
	}
	var out ClusteringComparison
	var sumCP, sumXP, sumNC, sumNX float64
	for _, q := range s.Queries {
		hits := search.BaselineTFIDF(s.Sys.Index(), q.Text, 0, topN)
		if len(hits) < 10 {
			continue
		}
		docs := make([]ctxsearch.PaperID, len(hits))
		for i, h := range hits {
			docs[i] = h.Doc
		}
		clusters, err := cluster.KMeans(a, docs)
		if err != nil {
			continue
		}
		var clusterGroups [][]ctxsearch.PaperID
		for _, c := range clusters {
			clusterGroups = append(clusterGroups, c.Docs)
		}

		// Ontology grouping: each result goes to the best selected context
		// containing it (results in no selected context form one residual
		// group, mirroring how a context UI would bucket them).
		sel := engine.SelectContexts(q.Text, search.Options{})
		byCtx := map[ctxsearch.TermID][]ctxsearch.PaperID{}
		var residual []ctxsearch.PaperID
		for _, d := range docs {
			placed := false
			for _, cs := range sel {
				if s.TextSet.Contains(cs.Context, d) {
					byCtx[cs.Context] = append(byCtx[cs.Context], d)
					placed = true
					break
				}
			}
			if !placed {
				residual = append(residual, d)
			}
		}
		var ctxGroups [][]ctxsearch.PaperID
		for _, g := range byCtx {
			ctxGroups = append(ctxGroups, g)
		}
		if len(residual) > 0 {
			ctxGroups = append(ctxGroups, residual)
		}

		sumCP += cluster.Purity(clusterGroups, labels)
		sumXP += cluster.Purity(ctxGroups, labels)
		sumNC += float64(len(clusterGroups))
		sumNX += float64(len(ctxGroups))
		out.Queries++
	}
	if out.Queries > 0 {
		out.MeanClusterPurity = sumCP / float64(out.Queries)
		out.MeanContextPurity = sumXP / float64(out.Queries)
		out.MeanClusters = sumNC / float64(out.Queries)
		out.MeanContexts = sumNX / float64(out.Queries)
	}
	return out
}
