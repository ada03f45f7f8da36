package index

import (
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

func benchIndex(b *testing.B) *Index {
	b.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 100, MaxDepth: 7})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(400))
	if err != nil {
		b.Fatal(err)
	}
	return BuildWorkers(corpus.NewAnalyzerWorkers(c, 0), 0)
}

func BenchmarkBuild(b *testing.B) {
	o, _ := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 60, MaxDepth: 6})
	c, _ := corpus.Generate(o, corpus.DefaultGenConfig(200))
	a := corpus.NewAnalyzerWorkers(c, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = BuildWorkers(a, 0)
	}
}

// benchIndexBuild measures the sharded CSR transpose of an analyzer's
// whole-paper rows.
func benchIndexBuild(b *testing.B, workers int) {
	o, _ := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 100, MaxDepth: 7})
	c, _ := corpus.Generate(o, corpus.DefaultGenConfig(400))
	a := corpus.NewAnalyzerWorkers(c, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = BuildWorkers(a, workers)
	}
}

func BenchmarkIndexBuildWorkers1(b *testing.B) { benchIndexBuild(b, 1) }
func BenchmarkIndexBuildWorkers8(b *testing.B) { benchIndexBuild(b, 8) }

// BenchmarkIndexSearchVector measures the raw accumulator hot path of
// SearchVector (query vector pre-built, no tokenisation) at the
// benchmark suite's reduced corpus size of 400 papers.
func BenchmarkIndexSearchVector(b *testing.B) {
	ix := benchIndex(b)
	qv := ix.Analyzer().QueryVector("regulation of rna transcription factor binding")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(ix.SearchVector(qv, Options{})) == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	ix := benchIndex(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ix.Search("regulation of rna transcription factor binding", Options{Limit: 20})
	}
}

// BenchmarkSearchQueryBoolean evaluates parsed boolean queries on a
// state-booted index shape (FromParts over a frozen analyzer): a term-only
// filter, a phrase (token-table scans over ~240 candidates), and NOT over a
// term and a field predicate. The token table fills during the first
// iterations; steady state is table reads and posting gathers.
func BenchmarkSearchQueryBoolean(b *testing.B) {
	eager := benchIndex(b)
	ix := frozenTwin(b, eager.Analyzer(), eager)
	for _, arm := range []struct{ name, expr string }{
		{"terms", `(regulation OR control) AND transcription AND NOT metallurgy`},
		{"phrase", `"regulation of actin ribosome" OR "folding initiation"`},
		{"not", `regulation AND NOT transcription AND NOT title:folding`},
	} {
		b.Run(arm.name, func(b *testing.B) {
			q, err := ix.ParseQuery(arm.expr)
			if err != nil {
				b.Fatal(err)
			}
			if hits, err := ix.SearchQuery(q, Options{}); err != nil || len(hits) == 0 {
				b.Fatalf("%s: %d hits, err %v", arm.expr, len(hits), err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.SearchQuery(q, Options{Limit: 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnippet(b *testing.B) {
	ix := benchIndex(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ix.Snippet(corpus.PaperID(i%400), "regulation transcription binding", SnippetOptions{})
	}
}
