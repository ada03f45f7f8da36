package shard

import (
	"fmt"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/search"
)

// benchPages builds n sorted per-shard pages of rows each, with globally
// interleaved scores — the coordinator's merge input shape.
func benchPages(n, rows int) [][]search.Result {
	pages := make([][]search.Result, n)
	for s := 0; s < n; s++ {
		page := make([]search.Result, rows)
		for i := 0; i < rows; i++ {
			// Descending within the page, interleaved across pages.
			page[i] = search.Result{
				Doc:       corpus.PaperID(i*n + s),
				Relevancy: 1 - float64(i*n+s)/float64(n*rows+1),
			}
		}
		pages[s] = page
	}
	return pages
}

// BenchmarkMergePages measures coordinator-side merge throughput: K sorted
// shard pages into one exact top-k page. The limit-10 cases exercise the
// early-termination break (most rows are never offered), the unbounded case
// the concatenate-and-sort path.
func BenchmarkMergePages(b *testing.B) {
	for _, shards := range []int{2, 4, 8} {
		for _, rows := range []int{100, 1000} {
			pages := benchPages(shards, rows)
			b.Run(fmt.Sprintf("shards=%d/rows=%d/limit=10", shards, rows), func(b *testing.B) {
				opts := search.Options{Limit: 10}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					MergePages(pages, opts)
				}
			})
		}
	}
	pages := benchPages(4, 1000)
	b.Run("shards=4/rows=1000/unbounded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MergePages(pages, search.Options{})
		}
	})
}

var benchFix *fixture

// benchFixture is a larger corpus than the test fixture: sharding a
// 250-paper corpus measures only fan-out overhead, so the search benchmark
// needs enough papers for per-shard scoring work to dominate.
func benchFixture(b *testing.B) *fixture {
	b.Helper()
	if benchFix != nil {
		return benchFix
	}
	o, err := ontology.Generate(ontology.GenConfig{Seed: 6, NumTerms: 120, MaxDepth: 6, SecondParentProb: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(2000))
	if err != nil {
		b.Fatal(err)
	}
	a := corpus.NewAnalyzer(c)
	ix := index.Build(a)
	cs := contextset.BuildTextBased(ix, o, contextset.DefaultConfig())
	scores := prestige.ScoreAll(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0)
	prestige.PropagateMax(o, scores)
	m := scores.Freeze()
	benchFix = &fixture{onto: o, c: c, a: a, parts: ix.Parts(), cs: cs, matrix: m}
	return benchFix
}

// BenchmarkGroupSearch measures the end-to-end in-process scatter-gather at
// 1 vs 4 shards on the same corpus — the per-query cost of sharding (fan-out
// plus exact merge) against its parallel speedup across shard engines.
func BenchmarkGroupSearch(b *testing.B) {
	f := benchFixture(b)
	query := goldenQueries(f)[0]
	opts := search.Options{Limit: 10}
	for _, n := range []int{1, 4} {
		g := newGroup(b, f, n, Options{})
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Search(query, opts)
			}
		})
	}
}
