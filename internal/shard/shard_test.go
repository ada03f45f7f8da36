package shard

import (
	"context"
	"fmt"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/search"
)

// fixture holds the corpus-global state every shard shares, plus the
// single-engine reference the batteries compare against.
type fixture struct {
	*goldentest.Fixture
	ref *search.Engine
}

var cached *fixture

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	if cached == nil {
		g := goldentest.NewFixture(t, 6, corpus.DefaultGenConfig(250))
		cached = &fixture{g, search.NewEngine(g.Index, g.Matrix, search.DefaultWeights())}
	}
	return cached
}

// newGroup slices the fixture's postings into an n-shard group ranking by w.
func newGroup(t testing.TB, f *fixture, n int, w search.Weights) *Group {
	t.Helper()
	g, err := NewGroupParts(f.Index.Analyzer(), f.Index.Parts(), f.Set, f.Matrix, w, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// searchRanges answers q the way the coordinator and bench/tour.go do: every
// range engine under ShardOptions(opts), then MergePages.
func searchRanges(g *Group, q string, opts search.Options, boolean bool) ([]search.Result, error) {
	pages := make([][]search.Result, g.NumShards())
	for i := range pages {
		run := g.Engine(i).SearchContext
		if boolean {
			run = g.Engine(i).SearchBooleanContext
		}
		var err error
		if pages[i], err = run(context.Background(), q, ShardOptions(opts)); err != nil {
			return nil, err
		}
	}
	return MergePages(pages, opts), nil
}

var shardCounts = []int{1, 2, 3, 5, 8}

// The merged-range-pages layer of the spine battery: at every shard count,
// every range engine under ShardOptions then MergePages returns the single
// engine's page bit for bit, on every generated page. Ranked by prestige
// alone, many papers tie, and a tie that spans ranges must merge as the
// single engine orders it. Two entry points split the generated queries.

// TestGroupGoldenEquality: the generated vector queries.
func TestGroupGoldenEquality(t *testing.T) { spineMergedPages(t, false) }

// TestGroupBooleanOperators: the generated boolean queries — AND, OR,
// NOT, phrases and fields.
func TestGroupBooleanOperators(t *testing.T) { spineMergedPages(t, true) }

// spineMergedPages runs the battery on the generated queries of one kind:
// vector or boolean.
func spineMergedPages(t *testing.T, boolean bool) {
	t.Helper()
	f := buildFixture(t)
	queries := goldentest.Kind(goldentest.Queries(t, f.Onto, f.Matrix.Contexts()), boolean)
	for _, w := range []search.Weights{search.DefaultWeights(), {Prestige: 1}} {
		ref := search.NewEngine(f.Index, f.Matrix, w)
		for _, n := range shardCounts {
			g := newGroup(t, f, n, w)
			if got := g.NumShards(); got > n || got < 1 {
				t.Fatalf("group for n=%d has %d shards", n, got)
			}
			for _, q := range queries {
				for _, p := range goldentest.Pages(int64(n), 6) {
					opts := search.Options(p)
					label := fmt.Sprintf("%+v shards=%d %+v %+v", w, n, q, opts)
					got, gotErr := searchRanges(g, q.Text, opts, q.Boolean)
					run := ref.SearchContext
					if q.Boolean {
						run = ref.SearchBooleanContext
					}
					want, wantErr := run(context.Background(), q.Text, opts)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s: error %v, engine %v", label, gotErr, wantErr)
					}
					goldentest.Same(t, label, got, want)
				}
			}
		}
	}
}

// TestGroupSelectContexts pins that context selection is shard-independent:
// every range engine's answer equals the single engine's, which is what lets
// a coordinator proxy /contexts to any backend.
func TestGroupSelectContexts(t *testing.T) {
	f := buildFixture(t)
	g := newGroup(t, f, 3, search.DefaultWeights())
	for _, q := range goldentest.Queries(t, f.Onto, f.Matrix.Contexts()) {
		want := f.ref.SelectContexts(q.Text, search.Options{})
		for ri := 0; ri < g.NumShards(); ri++ {
			got, err := g.Engine(ri).SelectContextsContext(context.Background(), q.Text, search.Options{})
			if err != nil {
				t.Fatal(err)
			}
			goldentest.Same(t, fmt.Sprintf("%q range %d", q.Text, ri), got, want)
		}
	}
}

// TestGroupRangesPartition checks the ranges the n shard processes of a
// cluster bind cover the corpus with disjoint contiguous ranges.
func TestGroupRangesPartition(t *testing.T) {
	f := buildFixture(t)
	for _, n := range shardCounts {
		next := 0
		for i := 0; i < n; i++ {
			_, r, err := RangeEngineParts(f.Index.Analyzer(), f.Index.Parts(), f.Matrix, search.DefaultWeights(), i, n)
			if err != nil {
				t.Fatal(err)
			}
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("n=%d: bad range %+v (want Lo=%d)", n, r, next)
			}
			next = r.Hi
		}
		if next != f.Corpus.Len() {
			t.Fatalf("n=%d: ranges cover [0,%d), corpus has %d papers", n, next, f.Corpus.Len())
		}
	}
}

// TestShardOptions pins the scatter transformation.
func TestShardOptions(t *testing.T) {
	tests := []struct {
		in, want search.Options
	}{
		{search.Options{Limit: 10}, search.Options{Limit: 10}},
		{search.Options{Limit: 10, Offset: 5}, search.Options{Limit: 15}},
		{search.Options{}, search.Options{}},
		{search.Options{Offset: 7}, search.Options{}},
		{search.Options{Limit: 3, Offset: 2, Threshold: 0.5}, search.Options{Limit: 5, Threshold: 0.5}},
	}
	for _, tc := range tests {
		if got := ShardOptions(tc.in); got != tc.want {
			t.Fatalf("ShardOptions(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestMergePagesEarlyTermination feeds hand-built sorted pages and checks
// both the merged order and the paging window.
func TestMergePagesEarlyTermination(t *testing.T) {
	a := []search.Result{{Doc: 1, Relevancy: 0.9}, {Doc: 3, Relevancy: 0.5}, {Doc: 5, Relevancy: 0.1}}
	b := []search.Result{{Doc: 2, Relevancy: 0.8}, {Doc: 4, Relevancy: 0.4}}
	got := MergePages([][]search.Result{a, b}, search.Options{Limit: 2})
	if len(got) != 2 || got[0].Doc != 1 || got[1].Doc != 2 {
		t.Fatalf("merged page = %+v", got)
	}
	// Offset window crossing shard boundaries.
	got = MergePages([][]search.Result{a, b}, search.Options{Limit: 2, Offset: 1})
	if len(got) != 2 || got[0].Doc != 2 || got[1].Doc != 3 {
		t.Fatalf("offset page = %+v", got)
	}
	// Unbounded: all rows, globally sorted.
	got = MergePages([][]search.Result{a, b}, search.Options{})
	if len(got) != 5 || got[0].Doc != 1 || got[4].Doc != 5 {
		t.Fatalf("unbounded merge = %+v", got)
	}
	// Tie on relevancy: ascending doc order.
	tie := MergePages([][]search.Result{
		{{Doc: 9, Relevancy: 0.7}},
		{{Doc: 2, Relevancy: 0.7}},
	}, search.Options{Limit: 2})
	if tie[0].Doc != 2 || tie[1].Doc != 9 {
		t.Fatalf("tie order = %+v", tie)
	}
}
