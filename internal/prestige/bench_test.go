package prestige

import (
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

type corpusPaperID = corpus.PaperID

func benchFix(b *testing.B) *fixture {
	b.Helper()
	if cachedFixture != nil {
		return cachedFixture
	}
	// Reuse the test fixture builder through a throwaway testing.T-like
	// path: construct directly.
	o, err := ontology.Generate(ontology.GenConfig{Seed: 5, NumTerms: 70, MaxDepth: 7, SecondParentProb: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(300))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix := pattern.NewPosIndexWorkers(a, 0)
	cfg := contextset.DefaultConfig()
	cachedFixture = &fixture{
		onto: o, c: c, a: a, ix: ix,
		text: contextset.BuildTextBased(index.BuildWorkers(a, 0), o, cfg),
		pat:  contextset.BuildPatternBased(ix, a, o, cfg),
	}
	return cachedFixture
}

func largestContext(f *fixture) ontology.TermID {
	best := ontology.TermID("")
	bestN := 0
	for _, ctx := range f.pat.Contexts() {
		if n := f.pat.Size(ctx); n > bestN {
			bestN = n
			best = ctx
		}
	}
	return best
}

func BenchmarkCitationScoreContext(b *testing.B) {
	f := benchFix(b)
	s := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	ctx := largestContext(f)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ScoreContext(f.pat, ctx)
	}
}

func BenchmarkTextScoreContext(b *testing.B) {
	f := benchFix(b)
	s := NewTextScorer(f.a, DefaultTextWeights())
	var ctx ontology.TermID
	for _, c := range f.text.Contexts() {
		if _, ok := f.text.Representative(c); ok && f.text.Size(c) > 20 {
			ctx = c
			break
		}
	}
	if ctx == "" {
		b.Skip("no suitable context")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ScoreContext(f.text, ctx)
	}
}

func BenchmarkPatternScoreContext(b *testing.B) {
	f := benchFix(b)
	s := NewPatternScorer(f.ix, f.onto, pattern.DefaultConfig(), pattern.DefaultMatchConfig())
	ctx := largestContext(f)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ScoreContext(f.pat, ctx)
	}
}

func BenchmarkScoreAllSerialVsParallel(b *testing.B) {
	f := benchFix(b)
	b.Run("serial", func(b *testing.B) {
		s := NewCitationScorer(f.c, citegraph.PageRankOpts{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ScoreAll(s, f.pat, 10)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		s := NewCitationScorer(f.c, citegraph.PageRankOpts{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ScoreAllParallel(s, f.pat, 10, 0)
		}
	})
}

func BenchmarkPropagateMax(b *testing.B) {
	f := benchFix(b)
	s := NewCitationScorer(f.c, citegraph.PageRankOpts{})
	base := ScoreAll(s, f.pat, 10)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Copy then propagate (propagation mutates in place).
		cp := make(Scores, len(base))
		for ctx, m := range base {
			mm := make(map[corpusPaperID]float64, len(m))
			for id, v := range m {
				mm[id] = v
			}
			cp[ctx] = mm
		}
		_ = PropagateMax(f.onto, cp)
	}
}

// bigFix builds a context set with over a thousand scored contexts — the
// scale at which ScoreAllParallel's per-context allocations (subgraph maps,
// rank vectors) used to dominate; the pooled citegraph arenas are measured
// here for BENCH_PR3.json.
func bigFix(b *testing.B) (*corpus.Corpus, *contextset.ContextSet) {
	b.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 11, NumTerms: 2200, MaxDepth: 8, SecondParentProb: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(1600))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	cs := contextset.BuildTextBased(index.BuildWorkers(a, 0), o, contextset.DefaultConfig())
	if n := len(cs.Contexts()); n < 1000 {
		b.Fatalf("fixture too small: %d contexts, want >= 1000", n)
	}
	return c, cs
}

func BenchmarkScoreAllParallel1kContexts(b *testing.B) {
	c, cs := bigFix(b)
	s := NewCitationScorer(c, citegraph.PageRankOpts{})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ScoreAllParallel(s, cs, 0, 0)
	}
}

// BenchmarkPrestigeLookup pits the nested-map score lookup against the
// frozen CSR matrix's run-resolve + binary-search lookup, in the access
// pattern of the query merge: one context resolved per row, many papers
// probed within it.
func BenchmarkPrestigeLookup(b *testing.B) {
	f := benchFix(b)
	scores := ScoreAll(NewTextScorer(f.a, DefaultTextWeights()), f.text, 0)
	m := scores.Freeze()
	ctxs := scores.Contexts()
	papers := make([]corpusPaperID, f.c.Len())
	for i := range papers {
		papers[i] = corpusPaperID(i)
	}
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			ctx := ctxs[i%len(ctxs)]
			for _, p := range papers {
				sink += scores.Get(ctx, p)
			}
		}
		_ = sink
	})
	b.Run("matrix", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			run := m.Run(ctxs[i%len(ctxs)])
			for _, p := range papers {
				sink += run.Get(p)
			}
		}
		_ = sink
	})
}
