// Package cluster implements the automatically-derived hierarchical
// contexts the paper's §6 contrasts with its ontology-based approach
// (Ferragina & Gulli's web-snippet clustering): search results are grouped
// by k-means over their TF-IDF vectors and each cluster is labelled with
// its centroid's top terms. The experiments compare cluster purity against
// ontology-context purity — the paper's argument being that constructed
// clusters "are not as meaningful as the human-created ontology-based
// contexts".
package cluster

import (
	"fmt"
	"sort"

	"ctxsearch/internal/corpus"
)

// Cluster is one group of documents with a derived label.
type Cluster struct {
	// Label holds the centroid's top terms (stemmed).
	Label []string
	// Docs are the member documents, sorted.
	Docs []corpus.PaperID
}

// maxIter bounds the Lloyd iterations, and labelTerms is the number of
// centroid terms that label a cluster.
const (
	maxIter    = 25
	labelTerms = 3
)

// KMeans clusters documents by cosine similarity of their full-text TF-IDF
// vectors into √(n/2) clusters for n documents, a common heuristic.
// Deterministic: initial centroids are the documents at evenly spaced
// positions of the ID-sorted input, and ties in assignment go to the lower
// cluster index. Returns clusters sorted by size (largest first); empty
// clusters are dropped.
func KMeans(a *corpus.Analyzer, docs []corpus.PaperID) ([]Cluster, error) {
	return kmeans(a, docs, intSqrt(len(docs)/2))
}

// kmeans is KMeans into k clusters, at least one and at most one per
// document.
func kmeans(a *corpus.Analyzer, docs []corpus.PaperID, k int) ([]Cluster, error) {
	if len(docs) == 0 {
		return nil, fmt.Errorf("cluster: no documents")
	}
	ids := append([]corpus.PaperID(nil), docs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	k = min(max(k, 1), len(ids))

	rows := make([]corpus.Row, len(ids))
	for i, id := range ids {
		rows[i] = a.Row(id, corpus.WholeText)
	}

	// Deterministic init: evenly spaced documents.
	centroids := make([]corpus.Centroid, k)
	for c := 0; c < k; c++ {
		centroids[c] = a.Centroid(rows[c*len(ids)/k : c*len(ids)/k+1])
	}
	assign := make([]int, len(ids))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := range ids {
			best, bestSim := 0, -1.0
			for c := range centroids {
				if sim := centroids[c].Cosine(rows[i]); sim > bestSim {
					bestSim = sim
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		groups := make([][]corpus.Row, k)
		for i, c := range assign {
			groups[c] = append(groups[c], rows[i])
		}
		for c := range centroids {
			if len(groups[c]) > 0 {
				centroids[c] = a.Centroid(groups[c])
			}
			// Empty cluster: keep the old centroid; it may attract members
			// next round or stay empty and be dropped at the end.
		}
	}

	byCluster := make(map[int][]corpus.PaperID)
	for i, c := range assign {
		byCluster[c] = append(byCluster[c], ids[i])
	}
	var out []Cluster
	for c := 0; c < k; c++ {
		members := byCluster[c]
		if len(members) == 0 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, Cluster{
			Label: centroids[c].Vector().TopTerms(labelTerms),
			Docs:  members,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Docs) != len(out[j].Docs) {
			return len(out[i].Docs) > len(out[j].Docs)
		}
		return out[i].Docs[0] < out[j].Docs[0]
	})
	return out, nil
}

func intSqrt(n int) int {
	if n < 1 {
		return 1
	}
	x := 1
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// Purity measures how homogeneous a grouping is against ground-truth
// labels: Σ_c max_label |c ∩ label| / N. 1 means every group is
// single-label. labels maps each document to its true label (documents
// missing from the map are skipped).
func Purity(groups [][]corpus.PaperID, labels map[corpus.PaperID]string) float64 {
	total := 0
	agree := 0
	for _, g := range groups {
		counts := map[string]int{}
		n := 0
		for _, id := range g {
			if l, ok := labels[id]; ok {
				counts[l]++
				n++
			}
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		total += n
		agree += best
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}
