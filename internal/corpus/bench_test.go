package corpus

import (
	"testing"

	"ctxsearch/internal/ontology"
)

func benchCorpus(b *testing.B, n int) *Corpus {
	b.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 80, MaxDepth: 7})
	if err != nil {
		b.Fatal(err)
	}
	c, err := Generate(o, DefaultGenConfig(n))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchAnalyzerBuild(b *testing.B, workers int) {
	c := benchCorpus(b, 400)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewAnalyzerWorkers(c, workers)
	}
}

func BenchmarkAnalyzerBuildWorkers1(b *testing.B) { benchAnalyzerBuild(b, 1) }
func BenchmarkAnalyzerBuildWorkers8(b *testing.B) { benchAnalyzerBuild(b, 8) }

func benchAnalyzerWarm(b *testing.B, workers int) {
	c := benchCorpus(b, 400)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := NewAnalyzerWorkers(c, workers)
		b.StartTimer()
		a.Warm(workers)
	}
}

func BenchmarkAnalyzerWarmWorkers1(b *testing.B) { benchAnalyzerWarm(b, 1) }
func BenchmarkAnalyzerWarmWorkers8(b *testing.B) { benchAnalyzerWarm(b, 8) }

// analyzePaperAllocCeiling bounds the heap allocations of analysing one
// paper once its words are in the surface-form table: the Features maps and
// vectors plus one token slice per section and the two scratch slices, but
// no per-word strings. The count is deterministic, so CI holds it as a gate
// where ns/op would be noise.
const analyzePaperAllocCeiling = 80

var sinkFeatures *Features

// BenchmarkAnalyzePaper measures the steady-state analysis of one paper and
// fails when its allocations exceed analyzePaperAllocCeiling.
func BenchmarkAnalyzePaper(b *testing.B) {
	c := benchCorpus(b, 50)
	a := NewAnalyzerWorkers(c, 1)
	p := c.Papers()[7]
	if n := testing.AllocsPerRun(5, func() { sinkFeatures = a.analyzePaper(p) }); n > analyzePaperAllocCeiling {
		b.Fatalf("analyzePaper allocates %.0f times per paper, ceiling %d", n, analyzePaperAllocCeiling)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFeatures = a.analyzePaper(p)
	}
}
