package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"

	"ctxsearch"
	"ctxsearch/internal/goldentest"
)

// The served page as a Go benchmark: the handler chain a deployment runs
// (newFront's middleware, the mux, the handler), through
// httptest.NewRecorder, with the result cache off, at the serving
// benchmark's corpus shape (800 papers, 160 terms, seed 1), over the queries
// of the goldentest battery. Each benchmark fails when a request
// allocates more than its ceiling on average over the battery: the count is
// deterministic where ns/op is noise, so the ceilings gate and ns/op is a
// reading only.

var (
	benchOnce  sync.Once
	benchSys   *ctxsearch.System
	benchCS    *ctxsearch.ContextSet
	benchScore *ctxsearch.Matrix
	benchQs    []goldentest.Query
)

// benchState builds, once, the serving benchmark's system, its text context
// set and text scores, and the battery's queries.
func benchState(b *testing.B) (*ctxsearch.System, *ctxsearch.ContextSet, *ctxsearch.Matrix, []goldentest.Query) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := ctxsearch.DefaultConfig()
		cfg.Papers, cfg.OntologyTerms = 800, 160
		sys, err := ctxsearch.NewSyntheticSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSys = sys
		benchCS = sys.BuildTextContextSet()
		benchScore = sys.ScoreText(benchCS)
		benchQs = goldentest.Queries(b, sys.Ontology, benchScore.Contexts())
	})
	if benchSys == nil {
		b.Fatal("the benchmark system failed to build")
	}
	return benchSys, benchCS, benchScore, benchQs
}

// The allocs/op ceilings, each the count measured when it was pinned: a
// request's average allocations over the battery's 15 vector or 13 boolean
// queries. With the snippets tokenizing the query a second time the vector
// pages read 72.6, 137.2 and 73.1, and the boolean page 105.5; with the page
// and shard-wire JSON through encoding/json and the snippet stems in a
// sync.Map as well, 75.8, 140.4 and 101.5; with the boolean page
// tokenizing its expression twice and scoring from per-term TF tables, 85.0.
const (
	searchPage10AllocCeiling  = 55.3
	searchPage100AllocCeiling = 119.9
	shardFinishAllocCeiling   = 55.8
	booleanPageAllocCeiling   = 71.9
)

// benchRequests serves each request reqs builds in turn, b.N requests in
// all, after failing b if a request is answered with another status than
// 200 or allocates more than ceiling times on average over reqs. The count
// leaves out building the request and its recorder, and is the least of five
// passes over reqs: a pass in which a collection empties a pool counts a
// few allocations more.
func benchRequests(b *testing.B, h http.Handler, reqs []func() *http.Request, ceiling float64) {
	b.Helper()
	for _, req := range reqs {
		rec := httptest.NewRecorder()
		if h.ServeHTTP(rec, req()); rec.Code != http.StatusOK {
			b.Fatalf("%s %s = %d: %s", req().Method, req().URL, rec.Code, rec.Body)
		}
	}
	// On one P, as testing.AllocsPerRun counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := uint64(math.MaxUint64)
	built := make([]*http.Request, len(reqs))
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for range 5 {
		for i, req := range reqs {
			built[i], recs[i] = req(), httptest.NewRecorder()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, r := range built {
			h.ServeHTTP(recs[i], r)
		}
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	n := float64(mallocs) / float64(len(reqs))
	if n > ceiling {
		b.Fatalf("a request allocates %.2f times on average over %d, ceiling %.1f", n, len(reqs), ceiling)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), reqs[i%len(reqs)]())
	}
	b.ReportMetric(n, "allocs/req")
}

// searchRequests returns a GET /search per battery query of this kind with
// these extra parameters.
func searchRequests(qs []goldentest.Query, boolean bool, params string) []func() *http.Request {
	var reqs []func() *http.Request
	for _, q := range goldentest.Kind(qs, boolean) {
		path := "/search?q=" + url.QueryEscape(q.Text) + params
		if boolean {
			path += "&boolean=1"
		}
		reqs = append(reqs, func() *http.Request { return httptest.NewRequest("GET", path, nil) })
	}
	return reqs
}

// cacheOff returns a single server over the benchmark state, cache off.
func cacheOff(b *testing.B) *Server {
	sys, cs, m, _ := benchState(b)
	return newPending(Config{CacheEntries: -1}, defaultTuning()).install(sys, cs, m)
}

// BenchmarkSearchPage10 serves first pages of 10 rows, the size the serving
// benchmark's HTTP workloads ask for.
func BenchmarkSearchPage10(b *testing.B) {
	_, _, _, qs := benchState(b)
	benchRequests(b, cacheOff(b), searchRequests(qs, false, "&limit=10"), searchPage10AllocCeiling)
}

// BenchmarkSearchPage100 serves first pages without a limit: DefaultLimit
// rows, what a client that sets none gets.
func BenchmarkSearchPage100(b *testing.B) {
	_, _, _, qs := benchState(b)
	benchRequests(b, cacheOff(b), searchRequests(qs, false, ""), searchPage100AllocCeiling)
}

// BenchmarkBooleanPage serves first pages of 10 rows for the battery's
// boolean expressions, as the serving benchmark's boolean_page workload
// asks them: the parser and the filter and phrase evaluator in place of
// the vector pass.
func BenchmarkBooleanPage(b *testing.B) {
	_, _, _, qs := benchState(b)
	benchRequests(b, cacheOff(b), searchRequests(qs, true, "&limit=10"), booleanPageAllocCeiling)
}

// BenchmarkShardFinish serves the finishing exchange of a 10-row page on two
// ranges: the second range's POST /shard/search carrying the first range's
// rows, which it merges with its own and renders.
func BenchmarkShardFinish(b *testing.B) {
	sys, cs, m, qs := benchState(b)
	g := sliceGroup(b, sys, cs, m, 2)
	var ranges [2]*Server
	for i := range ranges {
		ranges[i] = newPending(Config{CacheEntries: -1}, defaultTuning())
		ranges[i].SetReadyMapped(sys, cs, m, g.Engine(i), nil)
	}
	post := func(body []byte) *http.Request {
		return httptest.NewRequest("POST", "/shard/search", bytes.NewReader(body))
	}
	var reqs []func() *http.Request
	for _, q := range goldentest.Kind(qs, false) {
		req := ShardSearchRequest{Q: q.Text, Limit: 10}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		ranges[0].ServeHTTP(rec, post(body))
		var rows ShardSearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
			b.Fatalf("%q: rows answer %d: %v: %s", q.Text, rec.Code, err, rec.Body)
		}
		req.Finish = &ShardFinish{Limit: 10, Rows: rows.Results}
		if rows.Results == nil {
			req.Finish.Rows = []ShardRow{}
		}
		if body, err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, func() *http.Request { return post(body) })
	}
	benchRequests(b, ranges[1], reqs, shardFinishAllocCeiling)
}
