package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

// The hand-built merge fixtures, the negative-weight fallback, the shared
// scratch and the allocation ceilings: the places the spine battery's
// generated corpora cannot be relied on to reach.

// TestNegativeWeightTakesSortFallback: with a negative prestige weight
// relevancies go negative, where bit order is not numeric order (sorted by
// key, a list with two distinct negative relevancies comes out wrong); the
// ranking must then come from SortResults and still equal the naive
// reference.
func TestNegativeWeightTakesSortFallback(t *testing.T) {
	f := buildFixture(t)
	e := NewEngine(f.Index, f.Matrix, Weights{Prestige: -2, Matching: 0.1})
	negative := false
	for _, q := range goldentest.Queries(t, f.Onto, f.Matrix.Contexts()) {
		// The default threshold 0 would drop every negative relevancy.
		for _, opts := range []Options{{Threshold: -100, MaxContexts: 8, MinContextMatch: 0.01}, {Threshold: -100, Limit: 7, Offset: 2}} {
			got, _ := ask(e, q, opts, false)
			want, _ := ask(e, q, opts, true)
			goldentest.Same(t, fmt.Sprintf("negative weights %+v %+v", q, opts), got, want)
			for _, r := range got {
				negative = negative || r.Relevancy < 0
			}
		}
	}
	if !negative {
		t.Fatal("no query produced a negative relevancy: the fallback was not exercised")
	}
}

// handFixture is a hand-built merge input: an engine holding only a prestige
// matrix and weights, a fresh scratch, and the selected contexts —
// everything mergeHits reads.
type handFixture struct {
	e    *Engine
	sc   *scratch
	ctxs []ContextScore
}

// scoreMap is a hand-written prestige matrix: context → paper → score.
type scoreMap map[ontology.TermID]map[corpus.PaperID]float64

// matrixOf lays a scoreMap out as a Matrix: a context set whose runs are
// exactly the map's papers, bound through contextset.FromFrozen, and the
// map's scores as its column.
func matrixOf(s scoreMap) *prestige.Matrix {
	onto := ontology.New()
	f := &contextset.Frozen{Offsets: []int32{0}}
	var vals []float64
	for _, ctx := range sortedKeys(s) {
		if err := onto.Add(ontology.Term{ID: ctx, Name: string(ctx)}); err != nil {
			panic(err)
		}
		for _, d := range sortedKeys(s[ctx]) {
			f.Docs, vals = append(f.Docs, d), append(vals, s[ctx][d])
			f.Papers = max(f.Papers, int(d)+1)
		}
		f.Ctxs, f.Offsets = append(f.Ctxs, ctx), append(f.Offsets, int32(len(f.Docs)))
	}
	if err := onto.Build(); err != nil {
		panic(err)
	}
	cs, err := contextset.FromFrozen(onto, f)
	if err != nil {
		panic(err)
	}
	m, err := prestige.FromColumn(cs, f.Ctxs, vals)
	if err != nil {
		panic(err)
	}
	return m
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// newHandFixture selects ctxs, each with weight 1, over a context set whose
// runs are exactly the scoreMap's papers, all below papers.
func newHandFixture(w Weights, scores scoreMap, papers int, ctxs ...ontology.TermID) *handFixture {
	h := &handFixture{
		e:  &Engine{matrix: matrixOf(scores), weights: w},
		sc: &scratch{hitOf: make([]int32, papers)},
	}
	for _, c := range ctxs {
		h.ctxs = append(h.ctxs, ContextScore{Context: c, Score: 1})
	}
	return h
}

// reference is naive.go's merge over hits: each selected context searches
// the fixed hit list restricted to its members.
func (h *handFixture) reference(t *testing.T, hits []index.Hit, opts Options) []Result {
	t.Helper()
	out, err := h.e.mergeNaive(h.ctxs, h.e.members(h.ctxs), opts, func(within bitset.Set) ([]index.Hit, error) {
		var in []index.Hit
		for _, hit := range hits {
			if within.Contains(int(hit.Doc)) {
				in = append(in, hit)
			}
		}
		return in, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// merge returns mergeHits' ranked results, unpaginated.
func (h *handFixture) merge(t *testing.T, hits []index.Hit, opts Options) []Result {
	t.Helper()
	out, err := h.e.mergeHits(context.Background(), h.sc, h.ctxs, slices.Clone(hits), opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func docsOf(rs []Result) []corpus.PaperID {
	out := make([]corpus.PaperID, len(rs))
	for i, r := range rs {
		out[i] = r.Doc
	}
	return out
}

// truncatedKeyFixture returns hits whose ranking has a run of keys equal
// above the index bits. Matching weight 1 and prestige weight 0 make the
// relevancy the match score itself, so its low mantissa bits can be set at
// will: with 8 hits the keys drop 3 bits, and docs 0..3 differ only there.
func truncatedKeyFixture() (*handFixture, []index.Hit) {
	h := newHandFixture(Weights{Prestige: 0, Matching: 1}, scoreMap{"A": {0: 0.5, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0}}, 8, "A")
	base := math.Float64bits(0.5)
	return h, []index.Hit{
		{Doc: 0, Score: math.Float64frombits(base | 1)},
		{Doc: 1, Score: math.Float64frombits(base | 3)},
		{Doc: 2, Score: math.Float64frombits(base | 2)},
		{Doc: 3, Score: math.Float64frombits(base | 3)}, // exact tie with doc 1
		{Doc: 4, Score: 0.75},
		{Doc: 5, Score: 0.25},
		{Doc: 6, Score: 0.125},
		{Doc: 7, Score: 0.0625},
	}
}

// TestMergeTieFixtures pins the places where exactness rests on a tie rule
// or on the fold's bit arithmetic rather than on floating point.
func TestMergeTieFixtures(t *testing.T) {
	plain := Weights{Prestige: 0.5, Matching: 0.5}

	t.Run("members come from each run, scattered or searched", func(t *testing.T) {
		long := map[corpus.PaperID]float64{}
		for d := corpus.PaperID(0); d < 200; d += 2 {
			if d != 100 {
				long[d] = float64(d) / 400
			}
		}
		h := newHandFixture(plain, scoreMap{
			"A": {5: 0, 63: 0.25, 64: 0.125}, // ends before the last hit
			"B": {64: 0.5, 127: 0.125, 128: 0.875, 190: 0},
			"C": {7: 1, 70: 0}, // no member among the hits
			"D": {5: 0.75, 63: 1},
			"E": {1: 0.5, 63: 0}, // a member scored 0
			"F": long,            // over 8 members per hit: each hit is searched in the run
		}, 200, "A", "B", "C", "D", "E", "F")
		// Doc 100 is in no context.
		hits := []index.Hit{
			{Doc: 63, Score: 0.875}, {Doc: 64, Score: 0.75}, {Doc: 128, Score: 0.625}, {Doc: 127, Score: 0.5},
			{Doc: 5, Score: 0.375}, {Doc: 190, Score: 0.25}, {Doc: 100, Score: 0.125},
		}
		if len(long) <= 8*len(hits) {
			t.Fatalf("fixture broken: F's run of %d takes the scatter", len(long))
		}
		full := h.reference(t, hits, Options{})
		if want := []corpus.PaperID{63, 128, 64, 5, 190, 127}; !slices.Equal(docsOf(full), want) {
			t.Fatalf("fixture broken: reference order %v, want %v", docsOf(full), want)
		}
		if r := full[4]; r.Context != "F" {
			t.Fatalf("fixture broken: doc 190 should be won by F, through the binary search: %+v", r)
		}
		if r := full[3]; r.Context != "D" || r.Prestige != 0.75 {
			t.Fatalf("fixture broken: doc 5 should be won by D, its only scoring context: %+v", r)
		}
		for _, opts := range []Options{{}, {Threshold: 0.3}, {Limit: 1}, {Limit: 2}, {Limit: 2, Offset: 1}, {Limit: 3, Threshold: 0.3}} {
			got := Paginate(h.merge(t, hits, opts), opts)
			goldentest.Same(t, fmt.Sprintf("bit fixture %+v", opts), got, h.reference(t, hits, opts))
			for d, j := range h.sc.hitOf {
				if j != 0 {
					t.Fatalf("%+v: doc→hit table not reset at doc %d", opts, d)
				}
			}
		}
	})

	t.Run("equal relevancy in two papers orders by ascending doc", func(t *testing.T) {
		h := newHandFixture(plain, scoreMap{"A": {1: 0.25, 4: 0.25, 6: 0.5}}, 8, "A")
		hits := []index.Hit{{Doc: 6, Score: 0.5}, {Doc: 4, Score: 0.75}, {Doc: 1, Score: 0.75}}
		got := h.merge(t, hits, Options{})
		goldentest.Same(t, "two-paper tie", got, h.reference(t, hits, Options{}))
		if want := []corpus.PaperID{1, 4, 6}; !slices.Equal(docsOf(got), want) {
			t.Fatalf("order %v, want %v (bit-equal relevancies: 1 before 4)", docsOf(got), want)
		}
		if math.Float64bits(got[0].Relevancy) != math.Float64bits(got[1].Relevancy) {
			t.Fatalf("fixture broken: relevancies %v and %v are not bit-equal", got[0].Relevancy, got[1].Relevancy)
		}
	})

	t.Run("equal relevancy in two contexts keeps the first selected", func(t *testing.T) {
		for _, ctxs := range [][]ontology.TermID{{"A", "B"}, {"B", "A"}} {
			h := newHandFixture(plain, scoreMap{"A": {2: 0.5}, "B": {2: 0.5}}, 4, ctxs...)
			hits := []index.Hit{{Doc: 2, Score: 0.25}}
			for _, opts := range []Options{{}, {Limit: 1}} {
				got := h.merge(t, hits, opts)
				goldentest.Same(t, "two-context tie", got, h.reference(t, hits, opts))
				if got[0].Context != ctxs[0] {
					t.Fatalf("selection %v: context %q won the tie, want the first selected", ctxs, got[0].Context)
				}
			}
		}
	})

	t.Run("results sharing a truncated sort key take the fix-up", func(t *testing.T) {
		h, hits := truncatedKeyFixture()
		got := h.merge(t, hits, Options{})
		goldentest.Same(t, "truncated-key run", got, h.reference(t, hits, Options{}))
		if want := []corpus.PaperID{4, 1, 3, 2, 0, 5, 6, 7}; !slices.Equal(docsOf(got), want) {
			t.Fatalf("order %v, want %v", docsOf(got), want)
		}
		if !slices.IsSorted(h.sc.keys) {
			t.Fatal("the key sort did not run: this fixture must take the key path, not the fallback")
		}
	})

	t.Run("a page cut inside a truncated-key run ranks the whole run", func(t *testing.T) {
		// Ranked 4 | 1 3 2 0 | 5 6 7: ranks 1..4 share a key above the index
		// bits. A prefix whose last rank is 1..3 ends inside that run and
		// must extend to rank 4, so the fix-up still sees the run whole.
		h, hits := truncatedKeyFixture()
		for limit := 1; limit <= len(hits)+1; limit++ {
			for _, offset := range []int{-3, 0, 1, 3} {
				opts := Options{Limit: limit, Offset: offset}
				label := fmt.Sprintf("truncated-key page %+v", opts)
				ranked := h.merge(t, hits, opts)
				goldentest.Same(t, label, Paginate(ranked, opts), h.reference(t, hits, opts))
				want := min(max(offset, 0)+limit, len(hits))
				if want >= 2 && want <= 4 {
					want = 5
				}
				if len(ranked) != want {
					t.Fatalf("%s: %d results built, want %d", label, len(ranked), want)
				}
			}
		}
		neg := Options{Offset: -3, Limit: 2}
		goldentest.Same(t, "negative offset", Paginate(h.merge(t, hits, neg), neg), Paginate(h.merge(t, hits, Options{Limit: 2}), Options{Limit: 2}))
	})

	t.Run("index bits exhausted takes the SortResults fallback", func(t *testing.T) {
		old := keyIndexBits
		keyIndexBits = 2 // 8 hits need 3
		t.Cleanup(func() { keyIndexBits = old })
		h := newHandFixture(plain, scoreMap{"A": {0: 0.1, 1: 0, 2: 0, 3: 0.9, 4: 0, 5: 0.4, 6: 0, 7: 0}}, 8, "A")
		var hits []index.Hit
		for d := 0; d < 8; d++ {
			hits = append(hits, index.Hit{Doc: corpus.PaperID(d), Score: float64(d+1) / 16})
		}
		got := h.merge(t, hits, Options{})
		goldentest.Same(t, "index bits exhausted", got, h.reference(t, hits, Options{}))
		if slices.IsSorted(h.sc.keys) {
			t.Fatal("keys are sorted: the merge took the key path although the index bits were exhausted")
		}
	})
}

// TestSearchSharedScratchConcurrent: 8 goroutines drive one engine through
// every path that leases the pooled scratch — vector and boolean, full list
// and page — and each must see the single-threaded results (run under
// -race -count=10 in CI).
func TestSearchSharedScratchConcurrent(t *testing.T) {
	hammer(t, buildFixture(t), Options{MaxContexts: 8, MinContextMatch: 0.01}, Options{Limit: 10, MaxContexts: 8, MinContextMatch: 0.01})
}

// hammer asks the fixture's engine every generated query under each of
// opts from 8 goroutines, and fails unless each sees the single-threaded
// results.
func hammer(t *testing.T, f *fixture, opts ...Options) {
	type job struct {
		q    goldentest.Query
		opts Options
		want []Result
	}
	var jobs []job
	for _, o := range opts {
		for _, q := range goldentest.Queries(t, f.Onto, f.Matrix.Contexts()) {
			want, err := ask(f.engine, q, o, false)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{q, o, want})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i*7+g)%len(jobs)]
				if got, _ := ask(f.engine, j.q, j.opts, false); !slices.Equal(got, j.want) {
					t.Errorf("goroutine %d: %+v (%+v) differs from the single-threaded run", g, j.q, j.opts)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineSearchAllocCeiling makes the query path's allocations a
// deterministic CI quantity: full list and first page, vector and boolean,
// on the state-loaded shape and on the eager one (built index, built context
// set — what a first boot serves from), pinned to the same ceilings: a built
// set is read exactly as a state file's. Ceilings are the measured counts;
// what remains is the tokenizer and the query vector (per query word), the
// selected contexts and the result list — a page's rows are the ranked
// prefix, allocated once like a full list's.
func TestEngineSearchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f := buildFixture(t)
	shapes := engineShapes(t, f, DefaultWeights())
	qs := goldentest.Queries(t, f.Onto, f.Matrix.Contexts())
	vector, boolean := multiContextQuery(t, f), qs[slices.IndexFunc(qs, func(q goldentest.Query) bool { return q.Boolean })].Text
	for _, tc := range []struct {
		name    string
		boolean bool
		limit   int
		ceiling float64
	}{
		{"vector full list", false, 0, 25},
		{"vector first page", false, 10, 25},
		{"boolean full list", true, 0, 23},
		{"boolean first page", true, 10, 23},
	} {
		for _, s := range shapes[:2] { // eager and frozen
			e, name := s.e, s.name+" "+tc.name
			opts := Options{Limit: tc.limit, MaxContexts: 8, MinContextMatch: 0.01}
			run := func() {
				if tc.boolean {
					if res, err := e.SearchBooleanContext(context.Background(), boolean, opts); err != nil || len(res) == 0 {
						t.Fatalf("%s: %d results, err %v", name, len(res), err)
					}
				} else if len(e.Search(vector, opts)) == 0 {
					t.Fatalf("%s: no results", name)
				}
			}
			run() // lease and size the scratch
			if got := testing.AllocsPerRun(200, run); got > tc.ceiling {
				t.Errorf("%s: %.0f allocs/op, ceiling %.0f", name, got, tc.ceiling)
			} else {
				t.Logf("%s: %.0f allocs/op (ceiling %.0f)", name, got, tc.ceiling)
			}
		}
	}
}
