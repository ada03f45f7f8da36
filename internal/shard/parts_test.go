package shard

import (
	"context"
	"fmt"
	"testing"

	"ctxsearch/internal/search"
)

// TestGroupPartsGolden: a group whose shard indexes are sliced from the
// global postings returns byte-identical pages to the single reference
// engine, across shard counts and paging shapes.
func TestGroupPartsGolden(t *testing.T) {
	f := buildFixture(t)
	for _, n := range []int{1, 2, 3, 7} {
		g := newGroup(t, f, n, Options{})
		for _, q := range goldenQueries(f) {
			for _, opts := range []search.Options{
				{Limit: 10},
				{Limit: 5, Offset: 3},
				{Limit: 50, Threshold: 0.05},
			} {
				label := fmt.Sprintf("n=%d q=%q opts=%+v", n, q, opts)
				got, err := g.SearchContext(context.Background(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				diffResults(t, label, got, f.ref.Search(q, opts))
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
		sliced, r, err := RangeEngineParts(f.a, f.parts, f.matrix, search.DefaultWeights(), i, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range goldenQueries(f) {
			var want []search.Result
			for _, res := range f.ref.Search(q, search.Options{}) {
				if int(res.Doc) >= r.Lo && int(res.Doc) < r.Hi && len(want) < 20 {
					want = append(want, res)
				}
			}
			diffResults(t, fmt.Sprintf("shard %d q=%q", i, q), sliced.Search(q, search.Options{Limit: 20}), want)
		}
	}
	if _, _, err := RangeEngineParts(f.a, f.parts, f.matrix, search.DefaultWeights(), n, n); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}
