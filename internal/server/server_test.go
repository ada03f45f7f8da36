package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ctxsearch"
)

var (
	cachedSys    *ctxsearch.System
	cachedCS     *ctxsearch.ContextSet
	cachedScores *ctxsearch.Matrix
	cachedServer *Server
	cachedQuery  string
)

// install puts the whole-corpus engine over (sys, cs, m) into s — the tests'
// one helper over SetReadyMapped.
func (s *Server) install(sys *ctxsearch.System, cs *ctxsearch.ContextSet, m *ctxsearch.Matrix) *Server {
	s.SetReadyMapped(sys, cs, m, sys.Engine(m), nil)
	return s
}

// testState builds (once) the engine state shared by every server fixture,
// so fault tests can wrap it in servers with different Configs.
func testState(t testing.TB) (*ctxsearch.System, *ctxsearch.ContextSet, *ctxsearch.Matrix, string) {
	t.Helper()
	if cachedSys == nil {
		cfg := ctxsearch.DefaultConfig()
		cfg.Papers = 200
		cfg.OntologyTerms = 50
		cfg.MaxDepth = 6
		sys, err := ctxsearch.NewSyntheticSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cachedSys = sys
		cachedCS = sys.BuildTextContextSet()
		cachedScores = sys.ScoreText(cachedCS)
		cachedQuery = sys.Ontology.Term(cachedScores.Contexts()[0]).Name
	}
	return cachedSys, cachedCS, cachedScores, cachedQuery
}

func testServer(t *testing.T) (*Server, string) {
	t.Helper()
	sys, _, scores, query := testState(t)
	if cachedServer == nil {
		cachedServer = New(sys, scores)
	}
	return cachedServer, query
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestSearchEndpoint(t *testing.T) {
	s, query := testServer(t)
	rec := get(t, s, "/search?q="+urlQuery(query)+"&limit=5")
	if rec.Code != 200 {
		t.Fatalf("search = %d: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 5 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for _, r := range resp.Results {
		if r.Title == "" || r.Context == "" || r.Relevancy <= 0 {
			t.Fatalf("bad result %+v", r)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	s, query := testServer(t)
	if rec := get(t, s, "/search"); rec.Code != 400 {
		t.Fatalf("missing q = %d", rec.Code)
	}
	if rec := get(t, s, "/search?q="+urlQuery(query)+"&limit=zero"); rec.Code != 400 {
		t.Fatalf("bad limit = %d", rec.Code)
	}
	if rec := get(t, s, "/search?q="+urlQuery(query)+"&threshold=2"); rec.Code != 400 {
		t.Fatalf("bad threshold = %d", rec.Code)
	}
	// Paging caps: adversarially large limit/offset are rejected, the caps
	// themselves are accepted.
	if rec := get(t, s, "/search?q="+urlQuery(query)+"&limit=1001"); rec.Code != 400 {
		t.Fatalf("over-cap limit = %d", rec.Code)
	}
	if rec := get(t, s, "/search?q="+urlQuery(query)+"&offset=100001"); rec.Code != 400 {
		t.Fatalf("over-cap offset = %d", rec.Code)
	}
	if rec := get(t, s, "/search?q="+urlQuery(query)+"&limit=1000&offset=100000"); rec.Code != 200 {
		t.Fatalf("at-cap paging = %d: %s", rec.Code, rec.Body)
	}
}

func TestContextsEndpoint(t *testing.T) {
	s, query := testServer(t)
	rec := get(t, s, "/contexts?q="+urlQuery(query))
	if rec.Code != 200 {
		t.Fatalf("contexts = %d", rec.Code)
	}
	var infos []ContextInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("no contexts")
	}
	for _, ci := range infos {
		if ci.Term == "" || ci.Name == "" || ci.Level < 2 || ci.Papers <= 0 {
			t.Fatalf("bad context info %+v", ci)
		}
	}
	if rec := get(t, s, "/contexts"); rec.Code != 400 {
		t.Fatalf("missing q = %d", rec.Code)
	}
}

func TestPaperEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/papers/0")
	if rec.Code != 200 {
		t.Fatalf("paper = %d", rec.Code)
	}
	var resp PaperResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Title == "" || len(resp.Authors) == 0 {
		t.Fatalf("bad paper %+v", resp)
	}
	if rec := get(t, s, "/papers/999999"); rec.Code != 404 {
		t.Fatalf("missing paper = %d", rec.Code)
	}
	if rec := get(t, s, "/papers/xyz"); rec.Code != 400 {
		t.Fatalf("bad id = %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec := get(t, s, "/stats")
	if rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
	var resp StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Papers != 200 || resp.OntologyTerms != 50 || resp.Contexts == 0 {
		t.Fatalf("bad stats %+v", resp)
	}
	if resp.ContextSetKind != "text-based" {
		t.Fatalf("kind = %q", resp.ContextSetKind)
	}
}

// urlQuery escapes spaces for query strings without importing net/url in
// every call site.
func urlQuery(s string) string {
	out := ""
	for _, r := range s {
		if r == ' ' {
			out += "+"
		} else {
			out += fmt.Sprintf("%c", r)
		}
	}
	return out
}

func TestSearchBooleanAndOffset(t *testing.T) {
	s, query := testServer(t)
	// boolean=1 routes through Engine.Page as a boolean query (implicit AND
	// between the query's words).
	rec := get(t, s, "/search?q="+urlQuery(query)+"&boolean=1&limit=5")
	if rec.Code != 200 {
		t.Fatalf("boolean search = %d: %s", rec.Code, rec.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("boolean search returned nothing")
	}
	// An unparsable boolean query is a 400, not a 500.
	if rec := get(t, s, "/search?q="+urlQuery("NOT (")+"&boolean=1"); rec.Code != 400 {
		t.Fatalf("bad boolean query = %d", rec.Code)
	}
	// offset pages past the first result.
	full := get(t, s, "/search?q="+urlQuery(query)+"&limit=3")
	var fullResp SearchResponse
	if err := json.Unmarshal(full.Body.Bytes(), &fullResp); err != nil {
		t.Fatal(err)
	}
	if len(fullResp.Results) >= 2 {
		paged := get(t, s, "/search?q="+urlQuery(query)+"&limit=1&offset=1")
		var pagedResp SearchResponse
		if err := json.Unmarshal(paged.Body.Bytes(), &pagedResp); err != nil {
			t.Fatal(err)
		}
		if len(pagedResp.Results) != 1 || pagedResp.Results[0].PaperID != fullResp.Results[1].PaperID {
			t.Fatalf("offset paging broken: %+v vs %+v", pagedResp.Results, fullResp.Results[1])
		}
	}
	if rec := get(t, s, "/search?q="+urlQuery(query)+"&offset=-1"); rec.Code != 400 {
		t.Fatalf("bad offset = %d", rec.Code)
	}
}
