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
	return o, a, pattern.NewPosIndex(a)
}

// BenchmarkTextContextSet builds the text context set on the fixture above
// (250 papers / 60 terms) and on the serving benchmark's corpus shape (800
// papers / 160 terms, the ontology and corpus TestGenerateGolden pins).
func BenchmarkTextContextSet(b *testing.B) {
	b.Run("250x60", func(b *testing.B) {
		o, a, _ := benchFixture(b)
		benchTextContextSet(b, o, a)
	})
	b.Run("800x160", func(b *testing.B) {
		o, err := ontology.Generate(ontology.GenConfig{Seed: 1, NumTerms: 160, MaxDepth: 9, SecondParentProb: 0.12})
		if err != nil {
			b.Fatal(err)
		}
		c, err := corpus.Generate(o, corpus.DefaultGenConfig(800))
		if err != nil {
			b.Fatal(err)
		}
		benchTextContextSet(b, o, corpus.NewAnalyzerWorkers(c, 0))
	})
}

func benchTextContextSet(b *testing.B, o *ontology.Ontology, a *corpus.Analyzer) {
	ix := must(index.BuildWorkers(a, 0))
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
		_ = BuildPatternBased(ix, a, o, cfg, pattern.DefaultConfig())
	}
}
