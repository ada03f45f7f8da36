package search

import (
	"context"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/ontology"
)

// fixture is a generated build and the eager engine over it.
type fixture struct {
	*goldentest.Fixture
	engine *Engine
}

var cached *fixture

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	if cached == nil {
		cached = newFixture(t, 6, corpus.DefaultGenConfig(250))
	}
	return cached
}

// newFixture builds an eager engine over a generated ontology and corpus.
func newFixture(t testing.TB, ontoSeed int64, gcfg corpus.GenConfig) *fixture {
	t.Helper()
	g := goldentest.NewFixture(t, ontoSeed, gcfg)
	return &fixture{g, NewEngine(g.Index, g.Matrix, DefaultWeights())}
}

// queryForSomeContext returns a scored context's term name to use as query.
func queryForSomeContext(t *testing.T, f *fixture) (string, ontology.TermID) {
	t.Helper()
	for _, ctx := range f.Matrix.Contexts() {
		if f.Set.Size(ctx) >= 5 {
			return f.Onto.Term(ctx).Name, ctx
		}
	}
	t.Fatal("no usable context")
	return "", ""
}

func TestSelectContexts(t *testing.T) {
	f := buildFixture(t)
	name, ctx := queryForSomeContext(t, f)
	sel := f.engine.SelectContexts(name, Options{})
	if len(sel) == 0 {
		t.Fatalf("no contexts selected for %q", name)
	}
	found := false
	for _, cs := range sel {
		if cs.Context == ctx {
			found = true
		}
		if cs.Score <= 0 || cs.Score > 1 {
			t.Fatalf("context score out of range: %v", cs)
		}
	}
	if !found {
		t.Fatalf("exact-name query did not select its context %s: %v", ctx, sel)
	}
	// Scores sorted descending.
	for i := 1; i < len(sel); i++ {
		if sel[i].Score > sel[i-1].Score {
			t.Fatal("selected contexts not sorted")
		}
	}
	// Exact name must rank its context first or near-first (ties possible
	// with sibling names).
	if sel[0].Score < 0.99 && sel[0].Context != ctx {
		// The queried context must at least share the top score.
		if sel[0].Score > f.engine.scoreFor(ctx, name) {
			t.Logf("note: another context outranked the exact match: %v", sel[0])
		}
	}
}

// scoreFor is a test helper exposing the selection score of one context.
func (e *Engine) scoreFor(ctx ontology.TermID, query string) float64 {
	for _, cs := range e.SelectContexts(query, Options{MaxContexts: 1 << 20, MinContextMatch: 1e-9}) {
		if cs.Context == ctx {
			return cs.Score
		}
	}
	return 0
}

func TestSelectContextsEmptyQuery(t *testing.T) {
	f := buildFixture(t)
	if sel := f.engine.SelectContexts("", Options{}); sel != nil {
		t.Fatalf("empty query selected %v", sel)
	}
	if sel := f.engine.SelectContexts("qqqzzzxxx totally alien", Options{}); len(sel) != 0 {
		t.Fatalf("alien query selected %v", sel)
	}
}

func TestSelectContextsMaxContexts(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	sel := f.engine.SelectContexts(name, Options{MaxContexts: 2, MinContextMatch: 0.01})
	if len(sel) > 2 {
		t.Fatalf("cap violated: %v", sel)
	}
}

func TestSearchBasics(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	results := f.engine.Search(name, Options{})
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for i, r := range results {
		if r.Relevancy < 0 || r.Relevancy > 1.0000001 {
			t.Fatalf("relevancy out of range: %+v", r)
		}
		if i > 0 && r.Relevancy > results[i-1].Relevancy {
			t.Fatal("results not sorted by relevancy")
		}
		// Relevancy must equal the weighted combination.
		w := DefaultWeights()
		want := w.Prestige*r.Prestige + w.Matching*r.Match
		if diff := r.Relevancy - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("relevancy %v != %v", r.Relevancy, want)
		}
		// Every result must belong to its winning context.
		if !f.Set.Contains(r.Context, r.Doc) {
			t.Fatalf("result %d not in winning context %s", r.Doc, r.Context)
		}
	}
}

func TestSearchThresholdAndLimit(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	all := f.engine.Search(name, Options{})
	if len(all) < 2 {
		t.Skip("not enough results to test limits")
	}
	limited := f.engine.Search(name, Options{Limit: 1})
	if len(limited) != 1 || limited[0].Doc != all[0].Doc {
		t.Fatalf("limit broken: %v vs %v", limited, all[0])
	}
	thresh := all[0].Relevancy + 0.01
	strict := f.engine.Search(name, Options{Threshold: thresh})
	if len(strict) != 0 {
		t.Fatalf("threshold above max returned %v", strict)
	}
	mid := all[len(all)/2].Relevancy
	partial := f.engine.Search(name, Options{Threshold: mid})
	for _, r := range partial {
		if r.Relevancy < mid {
			t.Fatalf("threshold leak: %v < %v", r.Relevancy, mid)
		}
	}
}

func TestSearchReducesOutputSize(t *testing.T) {
	// The headline claim of [2]: context-based search output is smaller
	// than whole-corpus keyword search output because only papers in
	// selected contexts participate.
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	ctxResults := f.engine.Search(name, Options{})
	baseline := BaselineTFIDF(f.Index, name, 0, 0)
	if len(ctxResults) > len(baseline) {
		t.Fatalf("context search (%d) larger than baseline (%d)", len(ctxResults), len(baseline))
	}
}

func TestBaselinePubMedOrder(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	ids := BaselinePubMed(f.Index, name)
	if len(ids) == 0 {
		t.Fatal("baseline returned nothing")
	}
	for i := 1; i < len(ids); i++ {
		if f.Corpus.Paper(ids[i]).PMID > f.Corpus.Paper(ids[i-1]).PMID {
			t.Fatal("PubMed baseline not in descending PMID order")
		}
	}
}

func TestSearchNoContexts(t *testing.T) {
	f := buildFixture(t)
	if got := f.engine.Search("qqqzzz unknown words", Options{}); got != nil {
		t.Fatalf("alien query returned %v", got)
	}
}

func TestContextWeightedToggle(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	literal := NewEngine(f.Index, f.Matrix, Weights{Prestige: 0.5, Matching: 0.5, ContextWeighted: false})
	weighted := NewEngine(f.Index, f.Matrix, Weights{Prestige: 0.5, Matching: 0.5, ContextWeighted: true})
	rl := literal.Search(name, Options{})
	rw := weighted.Search(name, Options{})
	if len(rl) == 0 || len(rw) == 0 {
		t.Skip("no results to compare")
	}
	// The literal engine's relevancy for a given doc is ≥ the weighted
	// one's (context score ≤ 1 only shrinks the prestige term).
	wByDoc := map[int]float64{}
	for _, r := range rw {
		wByDoc[int(r.Doc)] = r.Relevancy
	}
	for _, r := range rl {
		if w, ok := wByDoc[int(r.Doc)]; ok && w > r.Relevancy+1e-9 {
			t.Fatalf("weighted relevancy exceeds literal for doc %d: %v > %v", r.Doc, w, r.Relevancy)
		}
	}
}

func TestSearchOffsetPagination(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	all := f.engine.Search(name, Options{})
	if len(all) < 3 {
		t.Skip("not enough results")
	}
	page2 := f.engine.Search(name, Options{Offset: 2, Limit: 2})
	if len(page2) == 0 || page2[0].Doc != all[2].Doc {
		t.Fatalf("offset pagination broken: %v vs %v", page2, all[2])
	}
	// Offset beyond the result set returns an empty page — non-nil, so
	// the API layer encodes a valid empty page rather than null.
	if got := f.engine.Search(name, Options{Offset: len(all) + 5}); got == nil || len(got) != 0 {
		t.Fatalf("oversized offset returned %v, want empty non-nil page", got)
	}
}

func TestSearchBoolean(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	plain := f.engine.Search(name, Options{})
	if len(plain) == 0 {
		t.Skip("no plain results")
	}
	// The same words as an AND query: results must be a subset of the
	// plain (OR-ish vector) search and still sorted.
	boolResults, err := f.engine.SearchBooleanContext(context.Background(), name, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plainSet := map[int]bool{}
	for _, r := range plain {
		plainSet[int(r.Doc)] = true
	}
	for i, r := range boolResults {
		if !plainSet[int(r.Doc)] {
			t.Fatalf("boolean result %d not in plain results", r.Doc)
		}
		if i > 0 && r.Relevancy > boolResults[i-1].Relevancy {
			t.Fatal("boolean results not sorted")
		}
	}
	// A NOT clause prunes.
	if len(boolResults) > 0 {
		firstWord := f.Index.Analyzer().Tokenizer().Terms(name)[0]
		pruned, err := f.engine.SearchBooleanContext(context.Background(), name+" AND NOT "+firstWord, Options{})
		if err == nil && len(pruned) >= len(boolResults) && len(boolResults) > 0 {
			t.Fatalf("NOT clause did not prune: %d vs %d", len(pruned), len(boolResults))
		}
	}
	// Unparsable queries error.
	if _, err := f.engine.SearchBooleanContext(context.Background(), "(((", Options{}); err == nil {
		t.Fatal("bad query must error")
	}
}

// TestSearchConcurrent hammers one engine from many goroutines — the
// accumulator pool, the bitset cache and the per-context worker pool must
// all be safe under concurrent queries (run with -race) and every
// goroutine must see identical results.
func TestSearchConcurrent(t *testing.T) {
	hammer(t, buildFixture(t), Options{MaxContexts: 8, MinContextMatch: 0.01})
}
