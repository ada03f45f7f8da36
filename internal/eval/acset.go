package eval

import (
	"sort"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
)

// AC(artificially constructed)-answer-set construction (§2): a
// high-threshold keyword seed, text-based expansion toward the seed centroid,
// and citation-based expansion along paths of length ≤ 2.
const (
	// seedThreshold is the cosine threshold of the initial keyword search,
	// and seedLimit caps the initial set.
	seedThreshold = 0.30
	seedLimit     = 40
	// expandThreshold admits papers whose similarity to the seed centroid
	// reaches it.
	expandThreshold = 0.22
	// citationDepth caps citation-path length (the paper uses 2: longer
	// paths lose context).
	citationDepth = 2
	// citationQuantile keeps only citation-expansion candidates whose global
	// PageRank is in the top (1−q) quantile, the paper's "high citation
	// scores" filter.
	citationQuantile = 0.5
)

// ACBuilder constructs AC-answer sets. It precomputes the corpus-wide
// PageRank once (the citation-expansion filter).
type ACBuilder struct {
	ix       *index.Index
	graph    *citegraph.Graph
	pagerank []float64
	prCutoff float64
}

// NewACBuilder prepares a builder over an index.
func NewACBuilder(ix *index.Index, graph *citegraph.Graph) *ACBuilder {
	pr := citegraph.PageRank(graph, citegraph.TeleportE1)
	sorted := append([]float64(nil), pr...)
	sort.Float64s(sorted)
	cutoff := 0.0
	if len(sorted) > 0 {
		cutoff = sorted[int(citationQuantile*float64(len(sorted)-1))]
	}
	return &ACBuilder{ix: ix, graph: graph, pagerank: pr, prCutoff: cutoff}
}

// Build constructs the AC-answer set of a query.
func (b *ACBuilder) Build(query string) map[corpus.PaperID]bool {
	seedHits := b.ix.Search(query, index.Options{Threshold: seedThreshold, Limit: seedLimit})
	answer := make(map[corpus.PaperID]bool, len(seedHits)*3)
	if len(seedHits) == 0 {
		return answer
	}
	seed := make([]corpus.PaperID, len(seedHits))
	for i, h := range seedHits {
		seed[i] = h.Doc
		answer[h.Doc] = true
	}

	// Text-based expansion: centroid of the seed's TF-IDF rows, as a query.
	a := b.ix.Analyzer()
	rows := make([]corpus.Row, len(seed))
	for i, id := range seed {
		rows[i] = a.Row(id, corpus.WholeText)
	}
	centroid := a.Centroid(rows).Vector()
	for _, h := range b.ix.SearchVector(centroid, index.Options{Threshold: expandThreshold}) {
		answer[h.Doc] = true
	}

	// Citation-based expansion: papers within citation-path distance ≤
	// citationDepth of the seed (following both directions), filtered to
	// high global PageRank.
	frontier := seed
	visited := make(map[corpus.PaperID]bool, len(seed))
	for _, id := range seed {
		visited[id] = true
	}
	for depth := 0; depth < citationDepth; depth++ {
		var next []corpus.PaperID
		for _, id := range frontier {
			for _, nb := range b.graph.Out(int(id)) {
				if !visited[corpus.PaperID(nb)] {
					visited[corpus.PaperID(nb)] = true
					next = append(next, corpus.PaperID(nb))
				}
			}
			for _, nb := range b.graph.In(int(id)) {
				if !visited[corpus.PaperID(nb)] {
					visited[corpus.PaperID(nb)] = true
					next = append(next, corpus.PaperID(nb))
				}
			}
		}
		for _, id := range next {
			if b.pagerank[id] >= b.prCutoff {
				answer[id] = true
			}
		}
		frontier = next
	}
	return answer
}
