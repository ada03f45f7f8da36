package server

import (
	"encoding/json"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/goldentest"
)

// freshFrozenSystem binds a new frozen system (its own mapping, analyzer
// and index) to a state file of the shared fixture — a state-booted process
// that has served nothing yet.
func freshFrozenSystem(t *testing.T) (*ctxsearch.System, *ctxsearch.ContextSet, *ctxsearch.Matrix) {
	t.Helper()
	fsys, mcs, mmat, mapped := openMappedSystem(t, savedState(t))
	t.Cleanup(func() { mapped.Close() })
	return fsys, mcs, mmat
}

func statsOf(t *testing.T, srv *Server) StatsResponse {
	t.Helper()
	rec := get(t, srv, "/stats")
	if rec.Code != 200 {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFrozenBooleanServesWithoutAnalysis is the point of running boolean
// queries on frozen data: a state-booted server answers every generated
// boolean form — phrases and field-scoped terms included — and comes out
// having analysed no paper: the phrase and field checks tokenize into the
// analyzer's token table, and only a TF-IDF row request counts as an
// analysis. /stats shows the same from outside and reads per installed
// generation. (That the answers are the eager build's, byte for byte, is
// TestCrossFormatGolden's.)
func TestFrozenBooleanServesWithoutAnalysis(t *testing.T) {
	sys, cs, m, _ := testState(t)
	fsys, mcs, mmat := freshFrozenSystem(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	srv := NewPending(Config{})
	srv.SetReadyMapped(fsys, mcs, mmat, fsys.Engine(mmat), nil)

	qs := goldentest.Queries(t, sys.Ontology, m.Contexts())
	for _, q := range goldentest.Kind(qs, true) {
		path := "/search?q=" + urlQuery(q.Text) + "&boolean=1"
		if rec := get(t, srv, path); rec.Code != 200 {
			t.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
		}
	}
	// The other read routes leave the analyzer frozen too.
	plain := urlQuery(goldentest.Kind(qs, false)[0].Text)
	for _, path := range []string{"/search?q=" + plain, "/contexts?q=" + plain, "/papers/5"} {
		if rec := get(t, srv, path); rec.Code != 200 {
			t.Fatalf("%s = %d", path, rec.Code)
		}
	}

	if n := fsys.Analyzer().AnalyzedPapers(); n != 0 {
		t.Fatalf("serving made the frozen analyzer analyse %d papers", n)
	}
	st := statsOf(t, srv)
	if st.AnalyzedPapers != 0 || st.TokenTablePapers == 0 {
		t.Fatalf("frozen /stats: analyzed_papers %d (want 0), token_table_papers %d (want > 0)", st.AnalyzedPapers, st.TokenTablePapers)
	}
	if est := statsOf(t, ref); est.AnalyzedPapers != est.Papers || est.TokenTablePapers == 0 {
		t.Fatalf("eager /stats: analyzed_papers %d of %d papers, token_table_papers %d", est.AnalyzedPapers, est.Papers, est.TokenTablePapers)
	}
	// A newly installed generation starts with an empty token table.
	fsys2, mcs2, mmat2 := freshFrozenSystem(t)
	srv.SetReadyMapped(fsys2, mcs2, mmat2, fsys2.Engine(mmat2), nil)
	if st := statsOf(t, srv); st.AnalyzedPapers != 0 || st.TokenTablePapers != 0 {
		t.Fatalf("post-swap /stats: analyzed_papers %d, token_table_papers %d, want 0 and 0", st.AnalyzedPapers, st.TokenTablePapers)
	}
}
