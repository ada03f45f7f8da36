package prestige

import (
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/par"
)

// ScoreAllParallel is ScoreAll with the per-context scoring fanned out over
// a worker pool. Results are identical to the serial version (per-context
// scoring is independent and deterministic); only wall-clock time changes.
// workers ≤ 0 selects GOMAXPROCS.
//
// The built-in scorers are safe for concurrent ScoreContext calls; custom
// Scorer implementations used here must be too.
func ScoreAllParallel(sc Scorer, cs *contextset.ContextSet, minSize, workers int) Scores {
	ctxs := cs.ContextsWithMinSize(minSize)
	if par.Workers(len(ctxs), workers) <= 1 {
		return ScoreAll(sc, cs, minSize)
	}
	scored := make([]map[corpus.PaperID]float64, len(ctxs))
	par.For(len(ctxs), workers, func(i int) {
		m := sc.ScoreContext(cs, ctxs[i])
		if d := cs.Decay(ctxs[i]); d != 1 {
			for id := range m {
				m[id] *= d
			}
		}
		scored[i] = m
	})
	out := make(Scores, len(ctxs))
	for i, m := range scored {
		if m != nil {
			out[ctxs[i]] = m
		}
	}
	return out
}
