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

// Workers2 is the pair to read against Workers1 on a 2-CPU host (CI's, and
// the one the BENCH files are taken on): 1-vs-8 there shows oversubscription,
// not whether the stage scales.
func BenchmarkAnalyzerBuildWorkers1(b *testing.B) { benchAnalyzerBuild(b, 1) }
func BenchmarkAnalyzerBuildWorkers2(b *testing.B) { benchAnalyzerBuild(b, 2) }
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
// vectors plus one token slice per section, but no per-word strings and —
// the split and token scratch being pooled — no scratch growth. The count is
// deterministic (52 measured; the margin is a pool emptied by a GC between
// runs), so CI holds it as a gate where ns/op would be noise.
const analyzePaperAllocCeiling = 56

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

var sinkCorpus *Corpus

// BenchmarkGenerate measures the synthetic generator every build and every
// boot without -corpus runs, at the serving benchmark's corpus size.
func BenchmarkGenerate(b *testing.B) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 1, NumTerms: 160, MaxDepth: 9, SecondParentProb: 0.12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sinkCorpus, err = Generate(o, DefaultGenConfig(800)); err != nil {
			b.Fatal(err)
		}
	}
}
