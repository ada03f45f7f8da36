package shard

import (
	"context"
	"fmt"
	"testing"

	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/search"
)

// TestGroupPartsGolden: a group whose shard indexes are sliced from the
// global postings returns byte-identical pages to the single reference
// engine, across shard counts and paging shapes.
func TestGroupPartsGolden(t *testing.T) {
	f := buildFixture(t)
	for _, n := range []int{1, 2, 3, 7} {
		g := newGroup(t, f, n, search.DefaultWeights())
		for _, q := range goldentest.Queries(t, f.Onto, f.Matrix.Contexts()) {
			for _, opts := range []search.Options{
				{Limit: 10},
				{Limit: 5, Offset: 3},
				{Limit: 50, Threshold: 0.05},
			} {
				label := fmt.Sprintf("n=%d q=%q opts=%+v", n, q.Text, opts)
				got, err := g.SearchContext(context.Background(), q.Text, opts)
				if err != nil {
					t.Fatal(err)
				}
				goldentest.Same(t, label, got, f.ref.Search(q.Text, opts))
			}
		}
	}
}

// TestRangeEngineParts: each sliced range engine returns the reference
// engine's ranking restricted to its range, and out-of-range indexes fail.
func TestRangeEngineParts(t *testing.T) {
	f := buildFixture(t)
	const n = 3
	for i := 0; i < n; i++ {
		sliced, r, err := RangeEngineParts(f.Index.Analyzer(), f.Index.Parts(), f.Matrix, search.DefaultWeights(), i, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range goldentest.Queries(t, f.Onto, f.Matrix.Contexts()) {
			var want []search.Result
			for _, res := range f.ref.Search(q.Text, search.Options{}) {
				if int(res.Doc) >= r.Lo && int(res.Doc) < r.Hi && len(want) < 20 {
					want = append(want, res)
				}
			}
			goldentest.Same(t, fmt.Sprintf("shard %d q=%q", i, q.Text), sliced.Search(q.Text, search.Options{Limit: 20}), want)
		}
	}
	if _, _, err := RangeEngineParts(f.Index.Analyzer(), f.Index.Parts(), f.Matrix, search.DefaultWeights(), n, n); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}
