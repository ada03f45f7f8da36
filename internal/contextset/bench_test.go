package contextset

import (
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

func benchFixture(b *testing.B) (*ontology.Ontology, *corpus.Analyzer, *pattern.PosIndex) {
	b.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 4, NumTerms: 60, MaxDepth: 6})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(250))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return o, a, pattern.NewPosIndexWorkers(a, 0)
}

func BenchmarkTextContextSet(b *testing.B) {
	o, a, _ := benchFixture(b)
	ix := index.BuildWorkers(a, 0)
	cfg := DefaultConfig()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = BuildTextBased(ix, o, cfg)
	}
}

func BenchmarkBuildPatternBased(b *testing.B) {
	o, a, ix := benchFixture(b)
	cfg := DefaultConfig()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = BuildPatternBased(ix, a, o, cfg)
	}
}
