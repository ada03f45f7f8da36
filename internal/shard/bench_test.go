package shard

import (
	"fmt"
	"testing"

	"ctxsearch/internal/corpus"
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
// shard pages k-way merged into one exact page. The limit-10 cases take
// the best page head ten times and never read the other rows; the
// unbounded case takes every row.
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
