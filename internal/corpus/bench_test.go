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

// analyzePaperAllocCeiling bounds the heap allocations of analysing one
// paper once its words are in the surface-form table: tokenizing it into
// term IDs and counting and weighing its five rows, into buffers the caller
// reuses, with the split, count and norm scratch pooled — so only the joined
// text of the index-terms section. The count is deterministic (1 measured;
// the margin is a pool emptied by a GC between runs), so CI holds it as a
// gate where ns/op would be noise.
const analyzePaperAllocCeiling = 3

// BenchmarkAnalyzePaper measures the steady-state analysis of one paper —
// the per-paper work of NewAnalyzerWorkers' three passes, on a frozen
// analyzer so the tokens come out as dictionary IDs — and fails when its
// allocations exceed analyzePaperAllocCeiling.
func BenchmarkAnalyzePaper(b *testing.B) {
	c := benchCorpus(b, 50)
	a := NewAnalyzerFrozen(c, NewAnalyzerWorkers(c, 1).DF())
	p := c.Papers()[7]
	idf := a.DF().IDFs()
	var (
		t     Tokens
		terms []int32
		w     []float64
	)
	analyze := func() {
		sc := a.lease(len(idf))
		t.IDs = a.appendTokens(sc, &a.forms, t.IDs[:0], p, &t.Ends)
		terms, w = terms[:0], w[:0]
		for s := range rowsPerPaper {
			toks := t.IDs
			if s < NumSections {
				toks = t.Section(Section(s))
			}
			lo := len(terms)
			terms, w = sc.appendTF(terms, w, toks)
			sc.weigh(terms[lo:], w[lo:], idf)
		}
		a.scratch.Put(sc)
	}
	if n := testing.AllocsPerRun(5, analyze); n > analyzePaperAllocCeiling {
		b.Fatalf("analysing a paper allocates %.0f times, ceiling %d", n, analyzePaperAllocCeiling)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		analyze()
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
