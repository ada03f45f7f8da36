package prestige

import (
	"slices"
	"sync"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// CitationScorer implements the citation-based prestige function of §3.1: a
// per-context PageRank over the induced citation subgraph — only citations
// between papers inside the context count, so citations from other contexts
// cannot erroneously boost a paper's score.
type CitationScorer struct {
	graph *citegraph.Graph
	opts  citegraph.PageRankOpts

	// scratch pools citegraph arenas so the subgraph + PageRank pipeline
	// reuses its position table, adjacency and rank buffers across the
	// thousands of contexts scored. Score's workers each hold one
	// arena for the duration of a context; results are unaffected (the
	// scratch pipeline is bit-identical to the allocating one).
	scratch sync.Pool

	// CrossContextWeight enables the §7 future-work extension: instead of
	// omitting citations whose other endpoint lies outside the context,
	// they contribute with a weight — higher when the endpoint's context is
	// hierarchically related to this one. Zero (the default) reproduces the
	// paper's main method.
	CrossContextWeight CrossContextWeights
}

// getScratch hands out a pooled arena (usable even on a zero-value scorer).
func (s *CitationScorer) getScratch() *citegraph.Scratch {
	if sc, ok := s.scratch.Get().(*citegraph.Scratch); ok {
		return sc
	}
	return citegraph.NewScratch()
}

// CrossContextWeights configures the §7 extension. All weights in [0,1].
type CrossContextWeights struct {
	// Enabled turns the extension on.
	Enabled bool
	// Related is the weight of edges to papers of hierarchically related
	// contexts (ancestor/descendant of the scored context).
	Related float64
	// Unrelated is the weight of edges to papers of unrelated contexts.
	Unrelated float64
}

// NewCitationScorer builds the scorer over the corpus-wide citation graph.
func NewCitationScorer(c *corpus.Corpus, opts citegraph.PageRankOpts) *CitationScorer {
	return &CitationScorer{graph: GraphFromCorpus(c), opts: opts}
}

// WithOpts returns a scorer with different PageRank options sharing the
// receiver's (immutable) citation graph — ablations sweep options without
// re-extracting the graph from the corpus each time. The clone starts with
// a fresh scratch pool (arenas are cheap; sync.Pool must not be copied).
func (s *CitationScorer) WithOpts(opts citegraph.PageRankOpts) *CitationScorer {
	return &CitationScorer{graph: s.graph, opts: opts, CrossContextWeight: s.CrossContextWeight}
}

// WithCrossContext returns a scorer with the §7 cross-context extension
// configured, sharing the receiver's citation graph.
func (s *CitationScorer) WithCrossContext(w CrossContextWeights) *CitationScorer {
	return &CitationScorer{graph: s.graph, opts: s.opts, CrossContextWeight: w}
}

// Name implements Scorer.
func (s *CitationScorer) Name() string { return "citation" }

// ScoreContext implements Scorer: PageRank over the induced subgraph,
// max-normalised. With the §7 extension enabled, boundary citations add a
// weighted bonus on top of the in-context PageRank.
func (s *CitationScorer) ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool {
	papers := cs.Papers(ctx)
	if len(papers) == 0 {
		return true
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	nodes := sc.Ints(len(papers))
	for i, p := range papers {
		nodes[i] = int(p)
	}
	// The members are distinct and SubgraphInto keeps input order, so
	// subgraph node i is papers[i]; pr aliases the arena, and copying it
	// out releases it for the worker's next context.
	sub, _ := s.graph.SubgraphInto(nodes, sc)
	copy(vals, citegraph.PageRankScratch(sub, s.opts, sc))
	if s.CrossContextWeight.Enabled {
		s.addCrossContextBonus(cs, ctx, papers, vals)
	}
	maxNormalize(vals)
	return true
}

// addCrossContextBonus implements the §7 variation: each citation crossing
// the context boundary contributes a small weighted vote — the weight
// depends on whether the citing/cited paper's contexts are hierarchically
// related to ctx. The bonus is scaled to the average in-context score so it
// perturbs rather than dominates. scores[i] is the score of papers[i]; the
// average sums them in that (ascending paper-ID) order, so the bonus has
// the same bits on every run.
func (s *CitationScorer) addCrossContextBonus(cs *contextset.ContextSet, ctx ontology.TermID, papers []corpus.PaperID, scores []float64) {
	var avg float64
	for _, v := range scores {
		avg += v
	}
	if len(scores) > 0 {
		avg /= float64(len(scores))
	}
	onto := cs.Ontology()
	// One neighbor buffer for the whole call, truncated per paper — the
	// in+out concatenation is only read within the iteration.
	neighbors := make([]int32, 0, 64)
	for i, p := range papers {
		var bonus float64
		neighbors = neighbors[:0]
		neighbors = append(neighbors, s.graph.In(int(p))...)
		neighbors = append(neighbors, s.graph.Out(int(p))...)
		for _, q := range neighbors {
			qid := corpus.PaperID(q)
			if _, in := slices.BinarySearch(papers, qid); in {
				continue // in-context edges already counted by PageRank
			}
			w := s.CrossContextWeight.Unrelated
			for _, qctx := range cs.ContextsOf(qid) {
				if onto.HierarchicallyRelated(ctx, qctx) {
					w = s.CrossContextWeight.Related
					break
				}
			}
			bonus += w
		}
		if bonus > 0 {
			scores[i] += avg * bonus / (bonus + 10) // saturating bonus
		}
	}
}

// ContextSparseness reports the sparseness of a context's induced citation
// graph — the diagnostic the paper uses to explain citation-score weakness.
func (s *CitationScorer) ContextSparseness(cs *contextset.ContextSet, ctx ontology.TermID) float64 {
	papers := cs.Papers(ctx)
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	nodes := sc.Ints(len(papers))
	for i, p := range papers {
		nodes[i] = int(p)
	}
	sub, _ := s.graph.SubgraphInto(nodes, sc)
	return sub.Sparseness()
}

// IsolationFraction returns the fraction of a context's papers with no
// citation edge inside the context at all — the papers PageRank cannot
// differentiate. This is the operative form of the paper's sparseness
// argument: deeper contexts keep fewer of their papers' citations inside
// the context, so more papers are isolated and citation scores degenerate.
func (s *CitationScorer) IsolationFraction(cs *contextset.ContextSet, ctx ontology.TermID) float64 {
	papers := cs.Papers(ctx)
	if len(papers) == 0 {
		return 1
	}
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	nodes := sc.Ints(len(papers))
	for i, p := range papers {
		nodes[i] = int(p)
	}
	sub, _ := s.graph.SubgraphInto(nodes, sc)
	isolated := 0
	for i := 0; i < sub.Len(); i++ {
		if len(sub.Out(i)) == 0 && len(sub.In(i)) == 0 {
			isolated++
		}
	}
	return float64(isolated) / float64(sub.Len())
}

// Graph exposes the underlying corpus-wide citation graph (used by the
// HITS-correlation ablation).
func (s *CitationScorer) Graph() *citegraph.Graph { return s.graph }
