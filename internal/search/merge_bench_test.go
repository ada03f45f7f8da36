package search

import (
	"context"
	"testing"

	"ctxsearch/internal/index"
)

// Prestige-heavy merge benchmark: isolates the per-(context, hit) prestige
// lookup that dominates mergeHits when many contexts are selected and the
// hit list is large. The hit list covers every paper of the selected
// contexts' union (threshold 0, no limit), so each of the k context rows
// performs one prestige lookup per hit — the innermost operation the CSR
// prestige matrix replaces two chained map lookups with. BENCH_PR3.json
// records the before/after numbers.

// mergeFixture returns the engine, a scratch bound to the bench query's 8
// selected contexts, and a maximal hit list: every doc in their union,
// scored.
func mergeFixture(b *testing.B) (*Engine, *scratch, []ContextScore, []index.Hit) {
	b.Helper()
	f := buildFixture(b)
	opts := Options{MaxContexts: 8, MinContextMatch: 0.01}
	query := "regulation of rna protein binding transport activity"
	ctxs := f.engine.SelectContexts(query, opts)
	if len(ctxs) == 0 {
		b.Fatal("bench query selects no contexts")
	}
	qv := f.engine.ix.Analyzer().QueryVector(query)
	sc := f.engine.getScratch()
	hits := f.engine.ix.SearchVector(qv, index.Options{WithinSet: sc.bind(f.engine.matrix.ContextSet(), ctxs)})
	if len(hits) == 0 {
		b.Fatal("bench query has no hits")
	}
	return f.engine, sc, ctxs, hits
}

func BenchmarkMergeHitsPrestige(b *testing.B) {
	e, sc, ctxs, hits := mergeFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := e.mergeHits(ctx, sc, ctxs, hits, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("no merged results")
		}
	}
}
