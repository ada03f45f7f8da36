package server

import (
	"encoding/json"
	"net/url"
	"testing"

	"ctxsearch/internal/search"
)

// TestStatsMergePerGeneration: /stats carries the prestige merge's counters
// — a page smaller than the hit list runs the bounded merge, a page
// covering it the exhaustive one — and a SetReadyMapped swap zeroes them.
func TestStatsMergePerGeneration(t *testing.T) {
	sys, cs, scores, query := testState(t)
	srv := New(sys, cs, scores)

	merge := func() search.MergeStats {
		t.Helper()
		rec := get(t, srv, "/stats")
		if rec.Code != 200 {
			t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
		}
		var resp StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Merge == nil {
			t.Fatal("stats response has no merge section")
		}
		return *resp.Merge
	}
	page := func(limit string) {
		t.Helper()
		if rec := get(t, srv, "/search?q="+url.QueryEscape(query)+"&limit="+limit); rec.Code != 200 {
			t.Fatalf("search = %d: %s", rec.Code, rec.Body)
		}
	}

	if st := merge(); st != (search.MergeStats{}) {
		t.Fatalf("fresh generation reports %+v, want zeroes", st)
	}
	page("1")
	st := merge()
	if st.Bounded != 1 || st.Exhaustive != 0 || st.WindowsScored == 0 || st.HitsMerged == 0 {
		t.Fatalf("after a limit=1 page: %+v, want one bounded merge with scored windows", st)
	}
	page("1000")
	if st2 := merge(); st2.Exhaustive != 1 || st2.Bounded != 1 || st2.HitsMerged <= st.HitsMerged {
		t.Fatalf("after a limit=1000 page: %+v (before: %+v), want one more exhaustive merge", st2, st)
	}

	srv.install(sys, cs, scores.Freeze())
	if st := merge(); st != (search.MergeStats{}) {
		t.Fatalf("post-swap generation reports %+v, want zeroes", st)
	}
}
