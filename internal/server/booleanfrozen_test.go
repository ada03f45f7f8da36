package server

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ctxsearch"
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

// booleanExprs derives boolean expressions from the context names the
// shared fixture scores: conjunctions, phrases, field-scoped terms,
// negations and nesting over words that select contexts.
func booleanExprs(t *testing.T) []string {
	t.Helper()
	var exprs []string
	for _, name := range coordQueries(t) {
		w := strings.Fields(name)
		if len(w) < 2 {
			continue
		}
		exprs = append(exprs,
			w[0]+" AND "+w[1],
			`"`+w[0]+" "+w[1]+`"`,
			`"`+name+`" OR `+w[0],
			"title:"+w[0]+" "+w[1],
			w[0]+" AND NOT abstract:"+w[1],
			"("+w[0]+" OR "+w[1]+`) AND NOT "`+w[1]+" "+w[0]+`"`,
			w[0]+` AND NOT "zzyzxq `+w[1]+`"`,
		)
	}
	return exprs
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
// queries on frozen data: a state-booted system answers them — through the
// engine and through the HTTP handler, byte-identically to the eagerly
// built system — and comes out having analysed no paper: the phrase and
// field checks tokenize into the analyzer's token table, and only a TF-IDF
// row request counts as an analysis. /stats shows the same from outside and
// reads per installed generation.
func TestFrozenBooleanServesWithoutAnalysis(t *testing.T) {
	sys, cs, m, _ := testState(t)
	fsys, mcs, mmat := freshFrozenSystem(t)
	eagerEng, frozenEng := sys.Engine(m), fsys.Engine(mmat)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	srv := NewPending(Config{})
	srv.SetReadyMapped(fsys, mcs, mmat, frozenEng, nil)

	exprs := booleanExprs(t)
	if len(exprs) < 20 {
		t.Fatalf("only %d boolean expressions derived from the fixture", len(exprs))
	}
	withResults := 0
	for i, expr := range exprs {
		opts := ctxsearch.SearchOptions{Limit: 1 + i%15, Offset: i % 4}
		want, wantErr := eagerEng.SearchBooleanContext(context.Background(), expr, opts)
		got, gotErr := frozenEng.SearchBooleanContext(context.Background(), expr, opts)
		if (gotErr != nil) != (wantErr != nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("engine %q: frozen (%v, %v), eager (%v, %v)", expr, got, gotErr, want, wantErr)
		}
		params := fmt.Sprintf("/search?q=%s&boolean=1&limit=%d&offset=%d", urlQuery(expr), opts.Limit, opts.Offset)
		wantRec, gotRec := get(t, ref, params), get(t, srv, params)
		if gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
			t.Fatalf("%s: frozen %d %s\neager %d %s", params, gotRec.Code, gotRec.Body, wantRec.Code, wantRec.Body)
		}
		if len(got) > 0 {
			withResults++
		}
	}
	if withResults < len(exprs)/3 {
		t.Fatalf("only %d of %d boolean expressions returned results", withResults, len(exprs))
	}
	// The other read routes leave the analyzer frozen too.
	for _, path := range []string{"/search?q=" + urlQuery(coordQueries(t)[0]), "/contexts?q=" + urlQuery(coordQueries(t)[0]), "/papers/5"} {
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
