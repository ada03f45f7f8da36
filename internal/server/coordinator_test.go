package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctxsearch"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/resilience"
	"ctxsearch/internal/search"
	"ctxsearch/internal/shard"
)

// sliceGroup partitions an in-process-built system into n shard engines by
// slicing its own postings.
func sliceGroup(t testing.TB, sys *ctxsearch.System, cs *ctxsearch.ContextSet, m *ctxsearch.Matrix, n int) *shard.Group {
	t.Helper()
	g, err := shard.NewGroupParts(sys.Analyzer(), sys.Index().Parts(), cs, m, sys.Config().Relevancy, n, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shardCluster boots n shard servers over the shared fixture (each holding
// the full system but a range-restricted searcher) plus a coordinator in
// front of them.
func shardCluster(t *testing.T, n int, scfg ShardConfig) *Coordinator {
	t.Helper()
	sys, cs, m, _ := testState(t)
	return clusterOver(t, sys, cs, m, n, 1, scfg)
}

// clusterOver is shardCluster over any system — built in-process, or booted
// from a state file — with each range served by that many replicas: listeners
// over one range-restricted server.
func clusterOver(t *testing.T, sys *ctxsearch.System, cs *ctxsearch.ContextSet, m *ctxsearch.Matrix, n, replicas int, scfg ShardConfig) *Coordinator {
	t.Helper()
	g := sliceGroup(t, sys, cs, m, n)
	var urls []string
	for i := 0; i < g.NumShards(); i++ {
		srv := NewPending(Config{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(i), nil)
		var members []string
		for r := 0; r < replicas; r++ {
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			members = append(members, ts.URL)
		}
		urls = append(urls, strings.Join(members, "|"))
	}
	coord := NewCoordinator(urls, Config{}, scfg)
	t.Cleanup(coord.Close)
	return coord
}

// noProber is the production tuning without the health prober.
func noProber() tuning {
	tu := defaultTuning()
	tu.probeInterval = 0
	return tu
}

// coordQueries returns the texts of the generated vector queries.
func coordQueries(t *testing.T) []string {
	t.Helper()
	sys, _, m, _ := testState(t)
	var qs []string
	for _, q := range goldentest.Queries(t, sys.Ontology, m.Contexts()) {
		if !q.Boolean {
			qs = append(qs, q.Text)
		}
	}
	return qs
}

// The failure policy's tests below run the coordinator, front and cache
// included, on the simulator (policy_sim_test.go): each names a schedule and
// the pages it serves, the checker holds every request to the failure
// policy, and the test adds what its mechanism must have done.

// TestCoordinatorEmptyPageNotRendered: a page with no rows — an offset past
// the end of the ranking, a query nothing matches — is not a special case the
// coordinator writes itself: it costs one exchange per range like any other
// page, and is the single server's, byte for byte.
func TestCoordinatorEmptyPageNotRendered(t *testing.T) {
	sh := simShape{ranges: 2, replicas: 1}
	s, recs := simServe(t, sh, simTuning(), nil, "past the end", "unknown words")
	for _, rec := range recs {
		if !strings.Contains(rec.Body.String(), `"results":[]`) {
			t.Fatalf("page not empty: %s", rec.Body)
		}
	}
	if snap := s.coord.metrics.Snapshot(); snap.RenderCalls != 2 || snap.Searches != 2 || snap.RowsServed != 0 || rangeRequests(snap) != 4 {
		t.Fatalf("2 empty pages on 2 ranges: %d finishing calls, %d searches, %d rows, %d range requests; want 2, 2, 0, 4",
			snap.RenderCalls, snap.Searches, snap.RowsServed, rangeRequests(snap))
	}
}

// TestCoordinatorFinishFailover: the finishing call is a range call like any
// other. A replica whose finishing call fails — a 500, or past the shard timeout —
// costs a failover to its sibling and nothing else. A range that cannot
// finish at all is a 503 by default; with AllowPartial the next range in
// rotation finishes the page without it, flagged; when no range can finish,
// the page is a 503 whatever the partial policy, and counts no search.
func TestCoordinatorFinishFailover(t *testing.T) {
	for _, k := range []simKind{sim5xx, simTimeout} {
		// Range 0 finishes the first page, asking backend 0 first.
		sh := simShape{ranges: 2, replicas: 2}
		s, recs := simServe(t, sh, simTuning(), map[simKey]simKind{{0, 0}: k}, "offset")
		if snap := s.coord.metrics.Snapshot(); recs[0].Code != 200 || snap.Failovers != 1 || snap.RenderCalls != 2 {
			t.Fatalf("finish %v on one replica: %d, %d failovers, %d finishing calls; want 200, 1, 2", k, recs[0].Code, snap.Failovers, snap.RenderCalls)
		}
	}
	// 3 ranges, range 0 answers rows but cannot finish. Three requests make
	// each range the finisher once: with range 0 the first is a 503 by
	// default and, with AllowPartial, the page of ranges 1 and 2 finished by
	// range 1 (the checker holds it to their page); the other two are exact.
	down, nowhere := map[simKey]simKind{}, map[simKey]simKind{}
	for i := 0; i < 1+simMaxRetries; i++ {
		down[simKey{0, i}], nowhere[simKey{0, i}], nowhere[simKey{1, 1 + i}] = sim5xx, sim5xx, sim5xx
	}
	for _, partial := range []bool{false, true} {
		sh := simShape{ranges: 3, replicas: 1, partial: partial}
		tu := simTuning()
		tu.breakerThreshold = 1000 // range 0 must answer the later rows calls
		s, recs := simServe(t, sh, tu, down, "offset", "offset", "offset")
		first := map[bool]int{false: 503, true: 200}[partial]
		if recs[0].Code != first || recs[1].Code != 200 || recs[2].Code != 200 {
			t.Fatalf("range 0 cannot finish, partial %v: statuses %d %d %d, want %d 200 200", partial, recs[0].Code, recs[1].Code, recs[2].Code, first)
		}
		// The degraded page asked range 1 twice: for its rows, then to finish.
		snap := s.coord.metrics.Snapshot()
		if snap.Partial != map[bool]uint64{false: 0, true: 1}[partial] || snap.Shards[0].Errors != 1 || snap.Shards[1].Requests != map[bool]uint64{false: 3, true: 4}[partial] {
			t.Fatalf("range 0 cannot finish, partial %v: %d partial pages, range 0 errors %d, range 1 requests %d",
				partial, snap.Partial, snap.Shards[0].Errors, snap.Shards[1].Requests)
		}
	}
	// Range 0 dead altogether, AllowPartial: whichever range is asked to
	// finish, the page is the same degraded one.
	dead := map[simKey]simKind{}
	for i := 0; i < 16; i++ {
		dead[simKey{0, i}] = sim5xx
	}
	sh := simShape{ranges: 3, replicas: 1, partial: true}
	s, recs := simServe(t, sh, simTuning(), dead, "offset", "offset", "offset")
	for k, rec := range recs {
		if degraded := s.cl.body(s.cl.page(t, "offset"), 0b110); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), degraded) {
			t.Fatalf("range 0 dead, request %d (%d) differs\ncoordinator: %s\nwant:        %s", k, rec.Code, rec.Body, degraded)
		}
	}
	if snap := s.coord.metrics.Snapshot(); snap.Partial != 3 {
		t.Fatalf("range 0 dead: %d of 3 pages flagged partial", snap.Partial)
	}
	// 2 ranges, every rows call answers but neither range can finish: range
	// 0 fails its finishing attempts (its calls 0–2) and, with AllowPartial,
	// range 1 is asked next and fails them too (its call 0 was its rows).
	for _, partial := range []bool{false, true} {
		sh := simShape{ranges: 2, replicas: 1, partial: partial}
		s, recs := simServe(t, sh, simTuning(), nowhere, "offset")
		snap, finishers := s.coord.metrics.Snapshot(), map[bool]uint64{false: 1, true: 2}[partial]
		if recs[0].Code != 503 || recs[0].Header().Get("Retry-After") != "3" || snap.Searches != 0 || snap.RowsServed != 0 || snap.RenderCalls != finishers*(1+simMaxRetries) {
			t.Fatalf("no range can finish, partial %v: %d (Retry-After %q), %d searches, %d rows, %d finishing calls; want 503 (\"3\"), 0, 0, %d",
				partial, recs[0].Code, recs[0].Header().Get("Retry-After"), snap.Searches, snap.RowsServed, snap.RenderCalls, finishers*(1+simMaxRetries))
		}
	}
}

// TestCoordinatorExchangesPerPage: every /search page of the table the single
// server answers — full, empty, deep in the ranking, boolean — costs one
// /shard/search exchange per range, exactly one of which carries "finish",
// and the finishing rotates over the ranges (the checker's healthy-page
// property, here over two requests of each page).
func TestCoordinatorExchangesPerPage(t *testing.T) {
	for n := 1; n <= 3; n++ {
		var pages []string
		for _, pg := range simClusterFor(t, n).pages {
			if !pg.proxied && pg.code == 200 {
				pages = append(pages, pg.name, pg.name)
			}
		}
		sh := simShape{ranges: n, replicas: 1}
		s, _ := simServe(t, sh, simTuning(), nil, pages...)
		snap := s.coord.metrics.Snapshot()
		if rangeRequests(snap) != uint64(len(pages)*n) || snap.RenderCalls != uint64(len(pages)) || snap.Searches != uint64(len(pages)) {
			t.Fatalf("%d ranges, %d pages: %d range requests, %d finishing calls, %d searches",
				n, len(pages), rangeRequests(snap), snap.RenderCalls, snap.Searches)
		}
	}
}

// TestCoordinatorFinisherOutsidePage: pages that hold none of the finisher's
// own rows — all of them rank before the page, or after it — are still the
// single server's: the finisher's rows count towards the offset without
// crossing the wire. Each page is served once per range in a row, so every
// range finishes it.
func TestCoordinatorFinisherOutsidePage(t *testing.T) {
	for n := 2; n <= 3; n++ {
		var pages []string
		for _, name := range []string{"before range 0", "after range 0"} {
			for k := 0; k < n; k++ {
				pages = append(pages, name)
			}
		}
		sh := simShape{ranges: n, replicas: 1}
		simServe(t, sh, simTuning(), nil, pages...)
	}
}

// TestCoordinatorReusesConnections: the coordinator's idle pool holds a
// connection per admitted query and backend, so rounds of 16 concurrent
// searches dial each shard about 16 times in total, not 16 times a round
// (http.DefaultTransport keeps 2 idle connections per host and re-dials the
// rest of every burst).
func TestCoordinatorReusesConnections(t *testing.T) {
	sys, cs, m, _ := testState(t)
	g := sliceGroup(t, sys, cs, m, 2)
	var dials [2]atomic.Int64
	var urls []string
	for i := 0; i < g.NumShards(); i++ {
		srv := NewPending(Config{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(i), nil)
		ts := httptest.NewUnstartedServer(srv)
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials[i].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord := newCoordinator(urls, Config{CacheEntries: -1}, ShardConfig{}, noProber())
	t.Cleanup(coord.Close)
	queries := coordQueries(t)

	const clients, rounds = 16, 20
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest("GET", "/search?q="+urlQuery(queries[k%4])+"&limit=5", nil)
				rec := httptest.NewRecorder()
				coord.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("round %d client %d = %d: %s", round, k, rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
	}
	for i := range dials {
		if n := dials[i].Load(); n > 2*clients {
			t.Fatalf("shard %d accepted %d connections for %d rounds of %d concurrent searches, want at most %d",
				i, n, rounds, clients, 2*clients)
		}
	}
}

// TestCoordinatorValidation: the coordinator enforces the same request
// validation as a server, without touching any shard.
func TestCoordinatorValidation(t *testing.T) {
	coord := shardCluster(t, 2, ShardConfig{})
	_, _, _, query := testState(t)
	for _, path := range []string{
		"/search",
		"/search?q=" + urlQuery(query) + "&limit=zero",
		"/search?q=" + urlQuery(query) + "&limit=1001",
		"/search?q=" + urlQuery(query) + "&offset=100001",
		"/search?q=" + urlQuery(query) + "&threshold=2",
	} {
		if rec := get(t, coord, path); rec.Code != 400 {
			t.Fatalf("%s = %d, want 400", path, rec.Code)
		}
	}
}

// TestCoordinatorRelaysClientError: a query every range rejects — an
// unparsable boolean — is their 400, relayed byte for byte, and so is one
// range's 400 among answers: never a 503, never a partial page.
func TestCoordinatorRelaysClientError(t *testing.T) {
	sh := simShape{ranges: 3, replicas: 1, partial: true}
	_, recs := simServe(t, sh, simTuning(), nil, "rejected")
	_, injected := simServe(t, sh, simTuning(), map[simKey]simKind{{1, 0}: sim4xx}, "offset")
	for _, rec := range append(recs, injected...) {
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "error") {
			t.Fatalf("client error through the coordinator = %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestCoordinatorDeadShard: a range whose backend fails every attempt fails
// the page with a 503 by default, counted against that range; /stats fails
// over past it from every rotation position.
func TestCoordinatorDeadShard(t *testing.T) {
	dead := map[simKey]simKind{}
	for i := 0; i < 8; i++ {
		dead[simKey{1, i}] = sim5xx
	}
	sh := simShape{ranges: 3, replicas: 1}
	s, recs := simServe(t, sh, simTuning(), dead, "offset", "/stats", "/stats", "/stats")
	if snap := s.coord.metrics.Snapshot(); recs[0].Code != 503 || snap.Shards[1].Errors != 1 {
		t.Fatalf("dead range 1 = %d, counted %+v", recs[0].Code, snap.Shards[1])
	}
	for k, rec := range recs[1:] {
		if rec.Code != 200 {
			t.Fatalf("/stats pick %d past the dead range = %d: %s", k, rec.Code, rec.Body)
		}
	}
}

// TestCoordinatorHangingShard: a range whose backend never answers resolves
// into a 503 once its attempts' deadlines and backoffs have passed on the
// simulated clock, counted as a timeout — the coordinator never hangs. (A
// real hang is a row of TestHTTPTransportExchange.)
func TestCoordinatorHangingShard(t *testing.T) {
	hung := map[simKey]simKind{}
	for i := 0; i < 1+simMaxRetries; i++ {
		hung[simKey{1, i}] = simTimeout
	}
	sh := simShape{ranges: 2, replicas: 1}
	tu := simTuning()
	s := newSimRun(simClusterFor(t, 2), sh, hung, tu)
	start := s.now()
	rec := s.serve(s.cl.page(t, "offset"))
	bound := (1+simMaxRetries)*simShardTimeout + resilience.Backoff(1, tu.backoffBase, tu.backoffMax, 0, nil) + resilience.Backoff(2, tu.backoffBase, tu.backoffMax, 0, nil)
	if snap := s.coord.metrics.Snapshot(); rec.Code != 503 || snap.Shards[1].Timeouts != 1 || s.now().Sub(start) > bound || len(s.violations) > 0 {
		t.Fatalf("hanging range = %d after %v (bound %v), range counters %+v: %v", rec.Code, s.now().Sub(start), bound, snap.Shards[1], s.violations)
	}
}

// TestCoordinatorPartial: with AllowPartial, a range whose call fails
// degrades the page — 200, flagged partial, the other range's rows only —
// instead of failing it. The degraded page is not cached (a checker
// property), and the next request, the range recovered, is exact. Retries
// are off: one would heal the one-shot 500.
func TestCoordinatorPartial(t *testing.T) {
	sh := simShape{ranges: 2, replicas: 1, partial: true}
	tu := simTuning()
	tu.maxRetries = 0
	s, recs := simServe(t, sh, tu, map[simKey]simKind{{1, 0}: sim5xx}, "offset", "offset")
	if !strings.Contains(recs[0].Body.String(), `"partial":true`) || !bytes.Equal(recs[1].Body.Bytes(), s.cl.page(t, "offset").golden) {
		t.Fatalf("degraded, then recovered:\n%s\n%s", recs[0].Body, recs[1].Body)
	}
	if snap := s.coord.metrics.Snapshot(); snap.Partial != 1 {
		t.Fatalf("partial counter = %d, want 1", snap.Partial)
	}
}

// TestCoordinatorCache: an exact page is cached, and the same request again is
// answered from the cache without an exchange.
func TestCoordinatorCache(t *testing.T) {
	sh := simShape{ranges: 2, replicas: 1}
	s, recs := simServe(t, sh, simTuning(), nil, "offset")
	exchanges := len(s.log)
	again := get(t, s.coord, s.cl.page(t, "offset").path)
	if !bytes.Equal(again.Body.Bytes(), recs[0].Body.Bytes()) || len(s.log) != exchanges {
		t.Fatalf("cached replay: %d more exchanges, body %s", len(s.log)-exchanges, again.Body)
	}
	if cst := s.coord.cache.Stats(); cst.Hits != 1 || cst.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", cst)
	}
}

// TestCoordinatorProxyEndpoints: /stats answers through the coordinator with
// the corpus and a sharding section that has counted the page served before
// it (the rest is the backend's, a checker property; the proxied /papers and
// /contexts are rows of the HTTP spine battery).
func TestCoordinatorProxyEndpoints(t *testing.T) {
	sys, _, _, _ := testState(t)
	sh := simShape{ranges: 3, replicas: 1}
	_, recs := simServe(t, sh, simTuning(), nil, "offset", "/stats")
	var stats StatsResponse
	if err := json.Unmarshal(recs[1].Body.Bytes(), &stats); err != nil || stats.Papers != sys.Corpus.Len() {
		t.Fatalf("stats = %s (%v), want %d papers", recs[1].Body, err, sys.Corpus.Len())
	}
	if sc := stats.Sharding; sc == nil || sc.Searches != 1 || len(sc.Shards) != 3 || rangeRequests(*sc) != 3 {
		t.Fatalf("sharding stats = %+v, want 1 search over 3 ranges", stats.Sharding)
	}
}

// TestCoordinatorReadyz: the coordinator is ready only when every shard range
// has a ready replica — one lost replica of a range does not make it wait.
func TestCoordinatorReadyz(t *testing.T) {
	sys, cs, m, _ := testState(t)
	g := sliceGroup(t, sys, cs, m, 2)

	ready := NewPending(Config{})
	ready.SetReadyMapped(sys, cs, m, g.Engine(0), nil)
	tsReady := httptest.NewServer(ready)
	t.Cleanup(tsReady.Close)

	pending := NewPending(Config{})
	tsPending := httptest.NewServer(pending)
	t.Cleanup(tsPending.Close)

	coord := NewCoordinator([]string{tsReady.URL, tsPending.URL}, Config{}, ShardConfig{})
	t.Cleanup(coord.Close)
	if rec := get(t, coord, "/readyz"); rec.Code != 503 {
		t.Fatalf("readyz with pending shard = %d", rec.Code)
	}
	if rec := get(t, coord, "/healthz"); rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
	pending.SetReadyMapped(sys, cs, m, g.Engine(1), nil)
	if rec := get(t, coord, "/readyz"); rec.Code != 200 {
		t.Fatalf("readyz with all shards ready = %d: %s", rec.Code, rec.Body)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	replicated := newCoordinator([]string{dead.URL + "|" + tsReady.URL, tsPending.URL}, Config{}, ShardConfig{}, noProber())
	t.Cleanup(replicated.Close)
	if rec := get(t, replicated, "/readyz"); rec.Code != 200 {
		t.Fatalf("readyz with one replica of a range lost = %d: %s", rec.Code, rec.Body)
	}
}

// TestShardSearchEndpoint pins the internal endpoint's contract directly:
// unrendered rows in engine order, validation of the extended limit range.
func TestShardSearchEndpoint(t *testing.T) {
	sys, cs, m, query := testState(t)
	srv := NewPending(Config{})
	srv.install(sys, cs, m)

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/shard/search", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	rec := post(fmt.Sprintf(`{"q":%q,"limit":5}`, query))
	if rec.Code != 200 {
		t.Fatalf("shard search = %d: %s", rec.Code, rec.Body)
	}
	var resp ShardSearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 5 {
		t.Fatalf("shard rows = %d", len(resp.Results))
	}
	for i := 1; i < len(resp.Results); i++ {
		if search.WorseResult(resp.Results[i-1], resp.Results[i]) {
			t.Fatalf("shard rows not in engine order at %d: %+v", i, resp.Results)
		}
	}
	if strings.Contains(rec.Body.String(), "title") || strings.Contains(rec.Body.String(), "snippet") {
		t.Fatalf("shard rows are rendered: %s", rec.Body)
	}

	// The coordinator's folded limit (offset+limit) must be accepted beyond
	// the public MaxLimit, up to the combined cap.
	if rec := post(fmt.Sprintf(`{"q":%q,"limit":%d}`, query, MaxOffset+MaxLimit)); rec.Code != 200 {
		t.Fatalf("folded limit rejected: %d %s", rec.Code, rec.Body)
	}
	if rec := post(fmt.Sprintf(`{"q":%q,"limit":%d}`, query, MaxOffset+MaxLimit+1)); rec.Code != 400 {
		t.Fatalf("oversized limit = %d, want 400", rec.Code)
	}
	if rec := post(`{"q":""}`); rec.Code != 400 {
		t.Fatalf("empty query = %d, want 400", rec.Code)
	}
	if rec := post(`{`); rec.Code != 400 {
		t.Fatalf("bad JSON = %d, want 400", rec.Code)
	}
	if rec := post(fmt.Sprintf(`{"q":%q,"limit":5,"threshold":3}`, query)); rec.Code != 400 {
		t.Fatalf("bad threshold = %d, want 400", rec.Code)
	}

	// Strict decoding: a field this version does not know, or anything after
	// the object, is a 400 — never a request answered without it.
	for _, body := range []string{
		fmt.Sprintf(`{"q":%q,"limit":5,"render":true}`, query),
		fmt.Sprintf(`{"q":%q,"limit":5,"finish":{"offset":0,"limit":5,"rows":[],"merge":false}}`, query),
		fmt.Sprintf(`{"q":%q,"limit":5}}`, query),
		fmt.Sprintf(`{"q":%q,"limit":5} {"q":%q,"limit":5}`, query, query),
	} {
		if rec := post(body); rec.Code != 400 {
			t.Fatalf("%s = %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}

	// Asked to finish, with no other range's rows, this (whole-corpus) server
	// answers its own /search page and counts its rows in the header; asked
	// for rows it sets no such header.
	if h := rec.Header().Get(pageRowsHeader); h != "" {
		t.Fatalf("rows answer carries %s %q", pageRowsHeader, h)
	}
	want := get(t, srv, "/search?q="+urlQuery(query)+"&limit=3&offset=2")
	rec = post(fmt.Sprintf(`{"q":%q,"limit":5,"finish":{"offset":2,"limit":3,"rows":[]}}`, query))
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) || rec.Header().Get(pageRowsHeader) != "3" {
		t.Fatalf("finishing answer (%d, %s %q) %s\n/search: %s", rec.Code, pageRowsHeader, rec.Header().Get(pageRowsHeader), rec.Body, want.Body)
	}
	for _, fin := range []string{
		`{"offset":0,"limit":0,"rows":[]}`,
		fmt.Sprintf(`{"offset":0,"limit":%d,"rows":[]}`, MaxLimit+1),
		`{"offset":-1,"limit":5,"rows":[]}`,
		fmt.Sprintf(`{"offset":%d,"limit":5,"rows":[]}`, MaxOffset+1),
		`{"offset":0,"limit":5,"rows":[{"d":99999999,"c":"x"}]}`,
	} {
		if rec := post(fmt.Sprintf(`{"q":%q,"limit":5,"finish":%s}`, query, fin)); rec.Code != 400 {
			t.Fatalf("finish %s = %d, want 400: %s", fin, rec.Code, rec.Body)
		}
	}

	// The page merge relies on the rows being ranked and naming papers
	// neither the rows nor this server's own results name again: rows that
	// break either rule are a 400, never a page that repeats or drops a
	// paper. Docs a < b < z are outside this server's top 5.
	own := map[ctxsearch.PaperID]bool{}
	for _, r := range resp.Results {
		own[r.Doc] = true
	}
	var free []ctxsearch.PaperID
	for d := ctxsearch.PaperID(0); len(free) < 3; d++ {
		if !own[d] {
			free = append(free, d)
		}
	}
	a, b, z, mine, c := free[0], free[1], free[2], resp.Results[0].Doc, sys.Ontology.TermIDs()[0]
	row := func(d ctxsearch.PaperID, r float64) string { return fmt.Sprintf(`{"d":%d,"r":%v,"c":%q}`, d, r, c) }
	for _, tc := range []struct {
		name string
		rows []string
		code int
	}{
		{"ranked distinct rows", []string{row(z, .99), row(a, .5), row(b, .5)}, 200},
		{"a paper twice", []string{row(a, .99), row(a, .98)}, 400},
		{"a paper twice in a row, exact tie", []string{row(a, .5), row(a, .5)}, 400},
		{"rising relevancy", []string{row(a, .10), row(b, .98)}, 400},
		{"tie with a falling doc ID", []string{row(b, .5), row(a, .5)}, 400},
		{"a paper of the server's own results", []string{row(mine, .5)}, 400},
	} {
		body := fmt.Sprintf(`{"q":%q,"limit":5,"finish":{"offset":0,"limit":10,"rows":[%s]}}`, query, strings.Join(tc.rows, ","))
		if rec := post(body); rec.Code != tc.code {
			t.Fatalf("%s: finish = %d, want %d: %s", tc.name, rec.Code, tc.code, rec.Body)
		}
	}
}

// TestShardSearchBodyCap drives maxShardBody with the largest finishing
// request the wire allows: the deepest page (MaxOffset, MaxLimit) carrying
// MaxOffset+MaxLimit other-range rows, each naming the corpus's longest
// paper ID and longest context ID, with scores of 17 significant digits
// behind five zeros — the longest a score in [0,1] encodes to. It must
// encode under the cap and be decoded in full, also padded to exactly the
// cap, and one byte past the cap is cut off. Its rows repeat one paper, so
// the answer is the finish-rows 400; a finish the server can answer, padded
// to exactly the cap, gets its page.
func TestShardSearchBodyCap(t *testing.T) {
	sys, cs, m, query := testState(t)
	// No query deadline: this is about bytes, and under the race detector
	// decoding 101 000 rows alone outlasts the default one.
	srv := newPending(Config{}, queryDeadline(0))
	srv.install(sys, cs, m)
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/shard/search", bytes.NewReader(body)))
		return rec
	}

	row := ShardRow{}
	for _, p := range sys.Corpus.Papers() {
		if len(strconv.Itoa(int(p.ID))) > len(strconv.Itoa(int(row.Doc))) {
			row.Doc = p.ID
		}
	}
	for _, id := range sys.Ontology.TermIDs() {
		if len(id) > len(row.Context) {
			row.Context = id
		}
	}
	score := math.Nextafter(1e-6, 1)
	if enc, _ := json.Marshal(score); string(enc) != "0.0000010000000000000002" {
		t.Fatalf("score encodes as %s, want 17 significant digits behind five zeros", enc)
	}
	row.Relevancy, row.Match, row.Prestige = score, score, score
	rows := make([]ShardRow, MaxOffset+MaxLimit)
	for i := range rows {
		rows[i] = row
	}
	body, err := json.Marshal(ShardSearchRequest{
		Q: query, Limit: MaxOffset + MaxLimit, Threshold: score,
		Finish: &ShardFinish{Offset: MaxOffset, Limit: MaxLimit, Partial: true, Rows: rows},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("worst-case finishing request: %d bytes (%.1f per row), cap %d", len(body), float64(len(body))/float64(len(rows)), maxShardBody)
	if len(body) >= maxShardBody {
		t.Fatalf("worst-case finishing request is %d bytes, cap %d", len(body), maxShardBody)
	}
	// Every row names the same paper, which a finish rejects only once the
	// whole body is decoded: the 400 then names the rows, while a body cut
	// off by the cap gets the decode error. Leading whitespace moves the
	// closing brace to the cap's last byte, then one past it.
	for pad, want := range map[int]string{0: "bad finish rows", maxShardBody - len(body): "bad finish rows", maxShardBody - len(body) + 1: "bad shard request"} {
		padded := append(bytes.Repeat([]byte{' '}, pad), body...)
		if rec := post(padded); rec.Code != 400 || !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("%d-byte body (cap %d) = %d, want 400 %q: %.200s", len(padded), maxShardBody, rec.Code, want, rec.Body)
		}
	}
	// A finish the server answers, padded to exactly the cap, is answered.
	small, err := json.Marshal(ShardSearchRequest{Q: query, Limit: MaxLimit, Finish: &ShardFinish{Limit: MaxLimit, Rows: []ShardRow{}}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := post(append(bytes.Repeat([]byte{' '}, maxShardBody-len(small)), small...)); rec.Code != 200 || rec.Header().Get(pageRowsHeader) == "" {
		t.Fatalf("%d-byte finishing request (cap %d) = %d: %.200s", maxShardBody, maxShardBody, rec.Code, rec.Body)
	}
}

// TestCoordinatorProxyStallIsATimeout: the proxied endpoints go through the
// one exchange and the one verdict /search uses. A backend past the shard timeout
// on /papers/5 is a timeout of that replica and a 503, and a proxied request
// the client abandons is a request that says nothing about the replica. (A
// body stalled on a socket is a row of TestHTTPTransportExchange.)
func TestCoordinatorProxyStallIsATimeout(t *testing.T) {
	sh := simShape{ranges: 1, replicas: 1}
	s, recs := simServe(t, sh, simTuning(), map[simKey]simKind{{0, 0}: simTimeout, {0, 1}: simCancel}, "/papers/5", "/papers/5")
	if rs := s.coord.metrics.Snapshot().Replicas[0]; recs[0].Code != 503 || rs.Requests != 2 || rs.Timeouts != 1 || rs.Errors != 0 || s.coord.breakers[0].State() != resilience.Closed {
		t.Fatalf("a stalled, then an abandoned /papers/5: first %d, replica %+v, breaker %v; want 503, 2 requests, 1 timeout, closed",
			recs[0].Code, rs, s.coord.breakers[0].State())
	}
}

// TestHTTPTransportExchange: the one function that touches a socket, against
// plain handlers, one row per way a backend answers or fails. Each row pins
// the (reply, error) the policy's exchange hands to record, and what record
// makes of it in the replica's counters: a deadline comes back as
// context.DeadlineExceeded itself, whatever net/http wrapped it in — a
// timeout; a cancelled request is a request and nothing else; the rest are
// errors of the backend. No row outlives the per-attempt deadline.
func TestHTTPTransportExchange(t *testing.T) {
	const timeout, maxBody = 100 * time.Millisecond, 1 << 10
	stop, arrived := make(chan struct{}), make(chan struct{}, 1)
	var servers []*httptest.Server
	t.Cleanup(func() {
		close(stop)
		for _, ts := range servers {
			ts.Close()
		}
	})
	block := func(r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}
	for _, row := range []struct {
		name             string
		handler          http.HandlerFunc // nil: nothing listens, the connection is refused
		cancel           bool             // the client leaves once the handler has the request
		status           int              // of the reply; 0: an error
		err              error            // that error itself; nil: any but a context's
		timeouts, errors uint64
	}{
		{name: "200", handler: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set(pageRowsHeader, "3")
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(bytes.Repeat([]byte(" "), maxBody))
		}, status: 200},
		{name: "refused", errors: 1},
		{name: "hang with the body unread", handler: func(_ http.ResponseWriter, r *http.Request) { block(r) }, err: context.DeadlineExceeded, timeouts: 1},
		{name: "stalled body", handler: func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			block(r)
		}, err: context.DeadlineExceeded, timeouts: 1},
		{name: "reset", handler: func(w http.ResponseWriter, _ *http.Request) {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close()
		}, errors: 1},
		{name: "body over the cap", handler: func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(make([]byte, maxBody+1))
		}, errors: 1},
		{name: "5xx", handler: func(w http.ResponseWriter, _ *http.Request) { http.Error(w, "down", 500) }, status: 500, errors: 1},
		{name: "cancelled", handler: func(_ http.ResponseWriter, r *http.Request) {
			arrived <- struct{}{}
			block(r)
		}, cancel: true, err: context.Canceled},
	} {
		t.Run(row.name, func(t *testing.T) {
			ts := httptest.NewServer(row.handler)
			servers = append(servers, ts)
			if row.handler == nil {
				ts.Close()
			}
			client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
			defer client.CloseIdleConnections()
			tr := &httpTransport{client: client, backends: []string{ts.URL}, timeout: timeout, maxBody: maxBody}
			p := newPolicy([][]int{{0}}, ShardConfig{}, defaultTuning(), tr)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if row.cancel {
				go func() {
					<-arrived
					cancel()
				}()
			}
			start := time.Now()
			rep, cerr := p.exchange(ctx, 0, "POST", "/shard/search", []byte(`{"q":"x"}`))
			p.record(ctx, 0, cerr)
			if elapsed := time.Since(start); elapsed > 10*timeout {
				t.Fatalf("took %v, the deadline is %v", elapsed, timeout)
			}
			switch {
			case row.status == 200:
				if cerr != nil || len(rep.body) != maxBody || rep.pageRows != "3" || rep.contentType != "application/json" {
					t.Fatalf("got %d bytes, %s %q, type %q, error %v", len(rep.body), pageRowsHeader, rep.pageRows, rep.contentType, cerr)
				}
			case row.status != 0:
				if rep.status != row.status || cerr == nil || cerr.status != row.status || cerr.err != nil {
					t.Fatalf("got status %d, error %+v; want a status %d failure", rep.status, cerr, row.status)
				}
			case cerr == nil || cerr.status != 0 || rep.status != 0:
				t.Fatalf("got status %d, error %v; want an error and no reply", rep.status, cerr)
			case row.err != nil && cerr.err != row.err:
				t.Fatalf("error %#v, want %v itself", cerr.err, row.err)
			case row.err == nil && (errors.Is(cerr.err, context.DeadlineExceeded) || errors.Is(cerr.err, context.Canceled)):
				t.Fatalf("error %v is a context's", cerr.err)
			}
			if rs := p.metrics.Snapshot().Replicas[0]; rs.Requests != 1 || rs.Timeouts != row.timeouts || rs.Errors != row.errors {
				t.Fatalf("replica counters %+v, want 1 request, %d timeouts, %d errors", rs, row.timeouts, row.errors)
			}
		})
	}
}

// TestDecodeRangePageRanksRows: a range's rows feed a merge that relies on
// their order, so rows out of SortResults order, or one paper twice in a
// row, make the answer a bad shard response — a failed call the policy
// retries or fails over, like any other 200 of the wrong shape.
func TestDecodeRangePageRanksRows(t *testing.T) {
	for _, tc := range []struct {
		rows string
		ok   bool
	}{
		{`[]`, true},
		{`[{"d":5,"r":0.9},{"d":2,"r":0.5},{"d":4,"r":0.5}]`, true},
		{`[{"d":4,"r":0.1},{"d":5,"r":0.98}]`, false},
		{`[{"d":4,"r":0.5},{"d":2,"r":0.5}]`, false},
		{`[{"d":3,"r":0.5},{"d":3,"r":0.5}]`, false},
	} {
		_, err := decodeRangePage(reply{status: 200, body: []byte(`{"results":` + tc.rows + `}`)}, false)
		if (err == nil) != tc.ok {
			t.Fatalf("rows %s: err %v, want ok %v", tc.rows, err, tc.ok)
		}
	}
}
