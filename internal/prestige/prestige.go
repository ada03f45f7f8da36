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
	// representative paper); whatever it wrote to vals is then discarded.
	ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool
}

// Score runs a scorer over every context of the set with more than minSize
// papers, damps each run by the context's RateOfDecay, and returns the
// scores as a Matrix: a column parallel to the set's members, each run
// written in place at the set's offsets, and one row per context the
// scorer accepted, ascending by term ID. The slots of a declined or too
// small context stay 0. Contexts are fanned out over workers (≤ 0 selects
// GOMAXPROCS); each writes only its own run, so the matrix is the same at
// every worker count. The built-in scorers are safe for concurrent
// ScoreContext calls; a custom Scorer used here must be too.
func Score(sc Scorer, cs *contextset.ContextSet, minSize, workers int) *Matrix {
	f := cs.Freeze()
	var ctxs []ontology.TermID
	var spans []span
	for i, ctx := range f.Ctxs {
		if lo, hi := f.Offsets[i], f.Offsets[i+1]; int(hi-lo) > minSize {
			ctxs, spans = append(ctxs, ctx), append(spans, span{lo, hi})
		}
	}
	vals := make([]float64, len(f.Docs))
	applies := make([]bool, len(ctxs))
	par.For(len(ctxs), workers, func(i int) {
		run := vals[spans[i].lo:spans[i].hi]
		if applies[i] = sc.ScoreContext(cs, ctxs[i], run); !applies[i] {
			clear(run) // the scorer may have written before declining
			return
		}
		if d := cs.Decay(ctxs[i]); d != 1 {
			for j := range run {
				run[j] *= d
			}
		}
	})
	// Compact out the declined rows; their slots are already 0.
	k := 0
	for i := range ctxs {
		if applies[i] {
			ctxs[k], spans[k] = ctxs[i], spans[i]
			k++
		}
	}
	return newMatrix(cs, ctxs[:k], spans[:k], vals)
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
