package search

import (
	"testing"
)

func TestExpandContextsAddsRelatives(t *testing.T) {
	f := buildFixture(t)
	name, ctx := queryForSomeContext(t, f)
	plain := f.engine.SelectContexts(name, Options{MaxContexts: 50})
	expanded := f.engine.SelectContexts(name, Options{MaxContexts: 50, ExpandContexts: true, MinExpandSim: 0.3})
	if len(expanded) < len(plain) {
		t.Fatalf("expansion shrank the selection: %d < %d", len(expanded), len(plain))
	}
	// The anchor context must still be present, and expansion must never
	// put an expanded context above the top direct match.
	if expanded[0].Context != plain[0].Context {
		t.Fatalf("expansion displaced the top match: %v vs %v", expanded[0], plain[0])
	}
	_ = ctx
	// All scores remain in (0,1].
	for _, cs := range expanded {
		if cs.Score <= 0 || cs.Score > 1 {
			t.Fatalf("expanded score out of range: %v", cs)
		}
	}
}

func TestExpandContextsSearchStillWorks(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	results := f.engine.Search(name, Options{ExpandContexts: true, MinExpandSim: 0.4})
	if len(results) == 0 {
		t.Fatal("expanded search returned nothing")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Relevancy > results[i-1].Relevancy {
			t.Fatal("expanded results not sorted")
		}
	}
}

func TestContextWeightedToggle(t *testing.T) {
	f := buildFixture(t)
	name, _ := queryForSomeContext(t, f)
	literal := NewEngine(f.ix, f.scores, Weights{Prestige: 0.5, Matching: 0.5, ContextWeighted: false})
	weighted := NewEngine(f.ix, f.scores, Weights{Prestige: 0.5, Matching: 0.5, ContextWeighted: true})
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
	boolResults, err := f.engine.SearchBoolean(name, Options{})
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
		firstWord := f.ix.Analyzer().Tokenizer().Terms(name)[0]
		pruned, err := f.engine.SearchBoolean(name+" AND NOT "+firstWord, Options{})
		if err == nil && len(pruned) >= len(boolResults) && len(boolResults) > 0 {
			t.Fatalf("NOT clause did not prune: %d vs %d", len(pruned), len(boolResults))
		}
	}
	// Unparsable queries error.
	if _, err := f.engine.SearchBoolean("(((", Options{}); err == nil {
		t.Fatal("bad query must error")
	}
}
