package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/search"
)

// refMerge is the single-engine reference: the page an engine holding
// every row at once would serve (pages hold disjoint papers, so the union
// is exactly the global result set).
func refMerge(pages [][]search.Result, opts search.Options) []search.Result {
	var all []search.Result
	for _, p := range pages {
		all = append(all, p...)
	}
	search.SortResults(all)
	return search.Paginate(all, opts)
}

// makePages builds n disjoint sorted pages; sizes[i] rows in page i, with
// relevancies drawn from a small set so cross-shard ties are common.
func makePages(rng *rand.Rand, sizes []int) [][]search.Result {
	id := 0
	pages := make([][]search.Result, len(sizes))
	for i, sz := range sizes {
		page := make([]search.Result, 0, sz)
		for j := 0; j < sz; j++ {
			page = append(page, search.Result{
				Doc:       corpus.PaperID(id),
				Relevancy: float64(rng.Intn(5)) / 4, // heavy ties incl. 0 and 1
			})
			id++
		}
		search.SortResults(page)
		pages[i] = page
	}
	return pages
}

// TestMergePagesEdgeCases pins the degenerate shapes a replicated,
// fault-tolerant fan-out actually produces: failed shards contributing
// empty pages, shards exhausted below the folded limit, and offsets
// landing exactly on page and result-set boundaries.
func TestMergePagesEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name  string
		sizes []int
		opts  search.Options
	}{
		{"all pages empty", []int{0, 0, 0}, search.Options{Limit: 10}},
		{"all pages empty unbounded", []int{0, 0}, search.Options{}},
		{"one populated among empties", []int{0, 7, 0}, search.Options{Limit: 5}},
		{"every shard short of the folded limit", []int{2, 1, 3}, search.Options{Limit: 50, Offset: 10}},
		{"offset on page boundary", []int{4, 4, 4}, search.Options{Limit: 4, Offset: 4}},
		{"offset at exact end of results", []int{3, 3}, search.Options{Limit: 10, Offset: 6}},
		{"offset one past the end", []int{3, 3}, search.Options{Limit: 10, Offset: 7}},
		{"offset+limit exactly covers all rows", []int{5, 5}, search.Options{Limit: 5, Offset: 5}},
		{"single shard", []int{9}, search.Options{Limit: 3, Offset: 2}},
		{"unbounded limit", []int{6, 6, 6}, search.Options{Offset: 4}},
		{"limit one", []int{8, 8}, search.Options{Limit: 1}},
	}
	for _, c := range cases {
		pages := makePages(rng, c.sizes)
		got := MergePages(pages, c.opts)
		goldentest.Same(t, c.name, got, refMerge(pages, c.opts))
	}
}

// TestMergePagesRandomized: randomized shard counts, page sizes, and
// paging against the reference — tie-heavy scores make any ordering bug
// in the k-way merge surface. A negative offset must serve the same page
// as offset 0.
func TestMergePagesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		sizes := make([]int, 1+rng.Intn(6))
		for i := range sizes {
			sizes[i] = rng.Intn(12)
		}
		opts := search.Options{Limit: rng.Intn(10), Offset: rng.Intn(15)}
		pages := makePages(rng, sizes)
		got := MergePages(pages, opts)
		label := fmt.Sprintf("trial %d sizes %v opts %+v", trial, sizes, opts)
		goldentest.Same(t, label, got, refMerge(pages, opts))
		neg := search.Options{Limit: opts.Limit, Offset: -1 - rng.Intn(5)}
		goldentest.Same(t, fmt.Sprintf("%s, offset %d", label, neg.Offset), MergePages(pages, neg), MergePages(pages, search.Options{Limit: opts.Limit}))
	}
}
