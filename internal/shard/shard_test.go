package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/search"
)

// fixture holds the corpus-global state every shard shares, plus the
// single-engine reference the golden battery compares against.
type fixture struct {
	onto   *ontology.Ontology
	c      *corpus.Corpus
	a      *corpus.Analyzer
	parts  *index.Parts
	cs     *contextset.ContextSet
	matrix *prestige.Matrix
	ref    *search.Engine
}

var cached *fixture

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	o, err := ontology.Generate(ontology.GenConfig{Seed: 6, NumTerms: 60, MaxDepth: 6, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(250))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ix := index.BuildWorkers(a, 0)
	cs := contextset.BuildTextBased(ix, o, contextset.DefaultConfig())
	m := prestige.PropagateMax(o, prestige.Score(prestige.NewTextScorer(a, prestige.DefaultTextWeights()), cs, 0, 1))
	cached = &fixture{
		onto: o, c: c, a: a, parts: ix.Parts(), cs: cs, matrix: m,
		ref: search.NewEngine(ix, m, search.DefaultWeights()),
	}
	return cached
}

// newGroup slices the fixture's postings into an n-shard group.
func newGroup(t testing.TB, f *fixture, n int, opts Options) *Group {
	t.Helper()
	g, err := NewGroupParts(f.a, f.parts, f.cs, f.matrix, search.DefaultWeights(), n, opts)
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

// goldenQueries mirrors the search package's battery: exact context names,
// cross-context mixes, generic phrases and a no-match query.
func goldenQueries(f *fixture) []string {
	var names []string
	for _, ctx := range f.matrix.Contexts() {
		if t := f.onto.Term(ctx); t != nil {
			names = append(names, t.Name)
		}
		if len(names) >= 10 {
			break
		}
	}
	queries := append([]string(nil), names...)
	for i := 0; i+1 < len(names); i += 2 {
		queries = append(queries, names[i]+" "+names[i+1])
	}
	queries = append(queries,
		"regulation of rna protein binding",
		"transport activity complex formation",
		"qqqzzz unknown words",
	)
	return queries
}

// diffResults compares element-wise: a merge may return an empty non-nil
// page where the engine returns nil (or vice versa) — the contract is the
// rows, not the slice header.
func diffResults(t *testing.T, label string, got, want []search.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: group returned %d results, engine %d\ngot:  %v\nwant: %v",
			label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs\ngot:  %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

var shardCounts = []int{1, 2, 3, 5, 8}

func buildGroups(t testing.TB, f *fixture) map[int]*Group {
	t.Helper()
	groups := make(map[int]*Group, len(shardCounts))
	for _, n := range shardCounts {
		groups[n] = newGroup(t, f, n, Options{})
	}
	return groups
}

// TestGroupGoldenEquality is the tentpole guarantee: for every shard count,
// the merged page equals the single-engine page exactly — same
// documents, same scores bit for bit, same maximising contexts — across
// randomized (limit, offset, threshold, context-count) combinations on both
// the vector and boolean paths, including unlimited requests.
func TestGroupGoldenEquality(t *testing.T) {
	f := buildFixture(t)
	groups := buildGroups(t, f)
	queries := goldenQueries(f)
	rng := rand.New(rand.NewSource(99))
	for _, n := range shardCounts {
		g := groups[n]
		if got := g.NumShards(); got > n || got < 1 {
			t.Fatalf("group for n=%d has %d shards", n, got)
		}
		for qi, q := range queries {
			for trial := 0; trial < 6; trial++ {
				opts := search.Options{
					Limit:           1 + rng.Intn(20),
					MaxContexts:     1 + rng.Intn(8),
					MinContextMatch: 0.01,
				}
				if rng.Intn(2) == 0 {
					opts.Offset = rng.Intn(15)
				}
				if rng.Intn(3) == 0 {
					opts.Threshold = rng.Float64() * 0.4
				}
				if trial == 5 {
					// Unlimited page: exercises the concatenate-and-sort
					// merge path.
					opts.Limit, opts.Offset = 0, 0
				}
				label := fmt.Sprintf("shards=%d query %d %q trial %d opts %+v", n, qi, q, trial, opts)
				got, _ := searchRanges(g, q, opts, false) // a vector query under a background context cannot fail
				diffResults(t, label, got, f.ref.Search(q, opts))

				bg, bgErr := searchRanges(g, q, opts, true)
				bw, bwErr := f.ref.SearchBoolean(q, opts)
				if (bgErr == nil) != (bwErr == nil) {
					t.Fatalf("%s: boolean error mismatch: group %v, engine %v", label, bgErr, bwErr)
				}
				if bgErr == nil {
					diffResults(t, label+" boolean", bg, bw)
				}
			}
		}
	}
}

// TestGroupBooleanOperators covers structured boolean queries (AND/OR/NOT,
// phrases) over the ranges, where per-shard parsing must agree.
func TestGroupBooleanOperators(t *testing.T) {
	f := buildFixture(t)
	g := newGroup(t, f, 4, Options{})
	names := goldenQueries(f)
	queries := []string{
		names[0] + " AND " + names[1],
		names[0] + " OR " + names[2],
		names[0] + " NOT " + names[1],
		"\"" + names[0] + "\"",
	}
	for _, q := range queries {
		for _, opts := range []search.Options{{Limit: 10}, {Limit: 3, Offset: 4}, {}} {
			got, gotErr := searchRanges(g, q, opts, true)
			want, wantErr := f.ref.SearchBoolean(q, opts)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%q: error mismatch: group %v, engine %v", q, gotErr, wantErr)
			}
			diffResults(t, fmt.Sprintf("boolean %q opts %+v", q, opts), got, want)
		}
	}
}

// TestGroupSelectContexts pins that context selection is shard-independent:
// every range engine's answer equals the single engine's, which is what lets
// a coordinator proxy /contexts to any backend.
func TestGroupSelectContexts(t *testing.T) {
	f := buildFixture(t)
	g := newGroup(t, f, 3, Options{})
	for _, q := range goldenQueries(f) {
		want := f.ref.SelectContexts(q, search.Options{})
		for ri := 0; ri < g.NumShards(); ri++ {
			got, err := g.Engine(ri).SelectContextsContext(context.Background(), q, search.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%q: range %d selected %d contexts, engine %d", q, ri, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%q: range %d selection %d differs: %+v vs %+v", q, ri, i, got[i], want[i])
				}
			}
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
			_, r, err := RangeEngineParts(f.a, f.parts, f.matrix, search.DefaultWeights(), i, n)
			if err != nil {
				t.Fatal(err)
			}
			if r.Lo != next || r.Hi <= r.Lo {
				t.Fatalf("n=%d: bad range %+v (want Lo=%d)", n, r, next)
			}
			next = r.Hi
		}
		if next != f.c.Len() {
			t.Fatalf("n=%d: ranges cover [0,%d), corpus has %d papers", n, next, f.c.Len())
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
