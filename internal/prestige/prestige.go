// Package prestige implements the paper's primary contribution: the three
// context-based prestige score functions of §3 — citation-based (per-context
// PageRank), text-based (weighted section/author/citation similarity to a
// representative paper), and pattern-based (scored textual patterns) — plus
// the hierarchical max-score propagation rule and the §7 future-work
// extension that weights cross-context citation relationships instead of
// omitting them.
//
// All scorers produce per-context scores max-normalised to [0,1] (so the
// separability analysis can bin them uniformly) and damped by the context's
// RateOfDecay when its paper set was inherited from an ancestor.
package prestige

import (
	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/par"
)

// Scorer computes prestige scores for the papers of one context.
type Scorer interface {
	// Name identifies the score function ("citation", "text", "pattern").
	Name() string
	// ScoreContext writes the prestige scores in [0,1] of ctx's members
	// into vals, which holds cs.Size(ctx) entries, in the set's run order
	// (ascending paper ID). It returns false when the function is not
	// applicable to this context (e.g. the text-based function without a
	// representative paper); vals is then meaningless.
	ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool
}

// Score runs a scorer over every context of the set with more than minSize
// papers, damps each run by the context's RateOfDecay, and lays the runs
// out as a Matrix: contexts ascending by term ID, each run in the set's
// member order, contexts the scorer declined left out. Contexts are fanned
// out over workers (≤ 0 selects GOMAXPROCS); each writes only its own run,
// so the matrix is the same at every worker count. The built-in scorers are
// safe for concurrent ScoreContext calls; a custom Scorer used here must be
// too.
func Score(sc Scorer, cs *contextset.ContextSet, minSize, workers int) *Matrix {
	ctxs := cs.ContextsWithMinSize(minSize)
	offsets := make([]int32, len(ctxs)+1)
	for i, ctx := range ctxs {
		offsets[i+1] = offsets[i] + int32(cs.Size(ctx))
	}
	docs := make([]corpus.PaperID, 0, offsets[len(ctxs)])
	for _, ctx := range ctxs {
		docs = append(docs, cs.Papers(ctx)...)
	}
	vals := make([]float64, len(docs))
	applies := make([]bool, len(ctxs))
	par.For(len(ctxs), workers, func(i int) {
		run := vals[offsets[i]:offsets[i+1]]
		if applies[i] = sc.ScoreContext(cs, ctxs[i], run); !applies[i] {
			return
		}
		if d := cs.Decay(ctxs[i]); d != 1 {
			for j := range run {
				run[j] *= d
			}
		}
	})
	// Compact out the declined rows in place: row i moves to row k ≤ i, and
	// its bounds are read before offsets[k+1] is written.
	k := 0
	for i, ctx := range ctxs {
		lo, hi := offsets[i], offsets[i+1]
		if !applies[i] {
			continue
		}
		at := offsets[k]
		copy(docs[at:], docs[lo:hi])
		copy(vals[at:], vals[lo:hi])
		ctxs[k] = ctx
		offsets[k+1] = at + hi - lo
		k++
	}
	n := offsets[k]
	m := &Matrix{
		ctxs:    ctxs[:k],
		ord:     make(map[ontology.TermID]int32, k),
		offsets: offsets[:k+1],
		docs:    docs[:n],
		vals:    vals[:n],
	}
	for i, ctx := range m.ctxs {
		m.ord[ctx] = int32(i)
	}
	m.rowMax = rowMaxima(m.offsets, m.vals)
	return m
}

// maxNormalize scales a run so its maximum is 1 (no-op when empty or
// all-zero).
func maxNormalize(vals []float64) {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return
	}
	for i := range vals {
		vals[i] /= max
	}
}

// GraphFromCorpus builds the corpus-wide citation graph (node i = paper i).
func GraphFromCorpus(c *corpus.Corpus) *citegraph.Graph {
	g := citegraph.NewGraph(c.Len())
	for _, p := range c.Papers() {
		for _, r := range p.References {
			_ = g.AddEdge(int(p.ID), int(r))
		}
	}
	return g
}
