package prestige

import (
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

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
	memo := pattern.NewMemo(pattern.NewPosIndex(a), o)
	cachedFixture = &fixture{
		onto: o, c: c, a: a, memo: memo,
		text: contextset.BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0),
		pat:  contextset.BuildPatternBased(memo, o, 0),
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
	s := NewCitationScorer(f.c)
	ctx := largestContext(f)
	b.ResetTimer()
	b.ReportAllocs()
	vals := make([]float64, f.pat.Size(ctx))
	for i := 0; i < b.N; i++ {
		_ = s.ScoreContext(f.pat, ctx, vals)
	}
}

func BenchmarkTextScoreContext(b *testing.B) {
	f := benchFix(b)
	s := NewTextScorer(f.a)
	var ctx ontology.TermID
	for _, c := range f.text.Contexts() {
		if _, ok := contextset.Representative(f.a, c); ok && f.text.Size(c) > 20 {
			ctx = c
			break
		}
	}
	if ctx == "" {
		b.Skip("no suitable context")
	}
	vals := make([]float64, f.text.Size(ctx))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ScoreContext(f.text, ctx, vals)
	}
}

func BenchmarkPatternScoreContext(b *testing.B) {
	f := benchFix(b)
	s := NewPatternScorer(f.memo)
	ctx := largestContext(f)
	vals := make([]float64, f.pat.Size(ctx))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ScoreContext(f.pat, ctx, vals)
	}
}

// BenchmarkScoreWorkers scores every context of the fixture's pattern set
// serially and across GOMAXPROCS workers.
func BenchmarkScoreWorkers(b *testing.B) {
	f := benchFix(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewCitationScorer(f.c)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Score(s, f.pat, 10, bc.workers)
			}
		})
	}
}

func BenchmarkPropagateMax(b *testing.B) {
	f := benchFix(b)
	base := Score(NewCitationScorer(f.c), f.pat, 10, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PropagateMax(f.onto, base)
	}
}

// bigFix builds a context set with over a thousand scored contexts — the
// scale at which Score's per-context allocations (subgraph maps,
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
	cs := contextset.BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0)
	if n := len(cs.Contexts()); n < 1000 {
		b.Fatalf("fixture too small: %d contexts, want >= 1000", n)
	}
	return c, cs
}

func BenchmarkScore1kContexts(b *testing.B) {
	c, cs := bigFix(b)
	s := NewCitationScorer(c)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Score(s, cs, 0, 0)
	}
}

// BenchmarkPrestigeLookup measures the matrix's run-resolve +
// binary-search lookup in the access pattern of the query merge: one
// context resolved per row, many papers probed within it.
func BenchmarkPrestigeLookup(b *testing.B) {
	f := benchFix(b)
	m := Score(NewTextScorer(f.a), f.text, 0, 0)
	ctxs := m.Contexts()
	papers := make([]corpus.PaperID, f.c.Len())
	for i := range papers {
		papers[i] = corpus.PaperID(i)
	}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		run := m.Run(ctxs[i%len(ctxs)])
		for _, p := range papers {
			sink += run.Get(p)
		}
	}
	_ = sink
}
