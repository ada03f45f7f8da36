package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	"ctxsearch/internal/par"
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
func shardCluster(t *testing.T, n int, scfg ShardConfig) (*Coordinator, []*httptest.Server) {
	t.Helper()
	sys, cs, m, _ := testState(t)
	return clusterOver(t, sys, cs, m, n, scfg)
}

// clusterOver is shardCluster over any system: built in-process, or booted
// from a state file.
func clusterOver(t *testing.T, sys *ctxsearch.System, cs *ctxsearch.ContextSet, m *ctxsearch.Matrix, n int, scfg ShardConfig) (*Coordinator, []*httptest.Server) {
	t.Helper()
	g := sliceGroup(t, sys, cs, m, n)
	var backends []*httptest.Server
	var urls []string
	for i := 0; i < g.NumShards(); i++ {
		srv := NewPending(Config{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(i), nil)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		backends = append(backends, ts)
		urls = append(urls, ts.URL)
	}
	coord := NewCoordinator(urls, Config{}, scfg)
	t.Cleanup(coord.Close)
	return coord, backends
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

// TestCoordinatorEmptyPageNotRendered: a page with no rows — an offset past
// the end of the ranking, a query nothing matches — is not a special case the
// coordinator writes itself: it costs one exchange per range like any other
// page, and is the single server's, byte for byte.
func TestCoordinatorEmptyPageNotRendered(t *testing.T) {
	sys, cs, m, query := testState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	coord, _ := shardCluster(t, 2, ShardConfig{})
	for _, path := range []string{
		"/search?q=" + urlQuery(query) + "&limit=10&offset=5000",
		"/search?q=" + urlQuery(query) + "&limit=10&offset=5000&boolean=1",
		"/search?q=qqqzzz+unknown+words&limit=10",
	} {
		want := get(t, ref, path)
		got := get(t, coord, path)
		if got.Code != 200 || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: coordinator (%d) %s\nsingle (%d) %s", path, got.Code, got.Body, want.Code, want.Body)
		}
		if !strings.Contains(got.Body.String(), `"results":[]`) {
			t.Fatalf("%s: page not empty: %s", path, got.Body)
		}
	}
	snap := coord.metrics.Snapshot()
	if snap.RenderCalls != 3 || snap.Searches != 3 || snap.RowsServed != 0 || rangeRequests(snap) != 6 {
		t.Fatalf("3 empty pages on 2 ranges: %d finishing calls, %d searches, %d rows, %d range requests; want 3, 3, 0, 6",
			snap.RenderCalls, snap.Searches, snap.RowsServed, rangeRequests(snap))
	}
}

// rangeRequests sums the per-range request counters: the exchanges the
// coordinator made for its pages.
func rangeRequests(snap shard.Snapshot) uint64 {
	var n uint64
	for _, s := range snap.Shards {
		n += s.Requests
	}
	return n
}

// wrappedCluster boots one shard server per element of ranges — the range it
// serves, so a range listed twice gets two replicas — each behind
// wrap(i, server), or refusing connections where that is nil, and a
// coordinator without prober in front of them.
func wrappedCluster(t *testing.T, nRanges int, ranges []int, wrap func(i int, srv http.Handler) http.Handler, cfg Config, scfg ShardConfig) *Coordinator {
	t.Helper()
	sys, cs, m, _ := testState(t)
	g := sliceGroup(t, sys, cs, m, nRanges)
	urls := make([]string, g.NumShards())
	for i, ri := range ranges {
		srv := NewPending(Config{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(ri), nil)
		h := wrap(i, srv)
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		if h == nil {
			ts.Close()
		}
		if urls[ri] != "" {
			urls[ri] += "|"
		}
		urls[ri] += ts.URL
	}
	scfg.ProbeInterval = -1
	coord := NewCoordinator(urls, cfg, scfg)
	t.Cleanup(coord.Close)
	return coord
}

// finishing reports whether r is a /shard/search call whose body holds
// "finish"; the body is read for it, and restored.
func finishing(r *http.Request) bool {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	return r.URL.Path == "/shard/search" && bytes.Contains(body, []byte(`"finish":`))
}

// onFinish answers the finishing calls with broken and hands every other
// request to srv.
func onFinish(srv http.Handler, broken http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if finishing(r) {
			broken(w, r)
			return
		}
		srv.ServeHTTP(w, r)
	})
}

// partialPage builds, without the cluster, the degraded page of path's query:
// the single server's whole ranking restricted to the papers keep admits,
// cut to (offset, limit) and flagged.
func partialPage(t *testing.T, ref *Server, query string, offset, limit int, keep func(paper int) bool) []byte {
	t.Helper()
	var full SearchResponse
	if err := json.Unmarshal(get(t, ref, "/search?q="+urlQuery(query)+"&limit=1000").Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	want := SearchResponse{Query: query, Results: []SearchResult{}, Partial: true}
	for _, r := range full.Results {
		if !keep(r.PaperID) {
			continue
		}
		if offset > 0 {
			offset--
		} else if len(want.Results) < limit {
			want.Results = append(want.Results, r)
		}
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCoordinatorFinishFailover: the finishing call is a range call like any
// other. A replica whose finishing answers 500, or never answers, costs a
// failover to its sibling inside ShardTimeout and nothing else — every page
// is still the single server's. A range that cannot finish at all is a 503
// with Retry-After, never a 200 with unrendered rows; with AllowPartial the
// next range in rotation finishes instead, and the page is the ranking
// without the failed range's papers, flagged.
func TestCoordinatorFinishFailover(t *testing.T) {
	sys, cs, m, query := testState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	queries := coordQueries(t)
	fail := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "finish down", http.StatusInternalServerError)
	}
	// The body has been read, so the server sees the coordinator give up on
	// the connection and ends the request context.
	hang := func(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() }
	scfg := fastResilience()
	scfg.BreakerThreshold = 1000 // every query must meet the broken backend
	nocache := Config{CacheEntries: -1}

	// 2 ranges x 2 replicas, the first replica of each cannot finish.
	for name, broken := range map[string]http.HandlerFunc{"500": fail, "hang": hang} {
		coord := wrappedCluster(t, 2, []int{0, 0, 1, 1}, func(i int, srv http.Handler) http.Handler {
			if i%2 == 0 {
				return onFinish(srv, broken)
			}
			return srv
		}, nocache, scfg)
		start := time.Now()
		for _, q := range queries[:4] {
			path := "/search?q=" + urlQuery(q) + "&limit=10"
			want := get(t, ref, path)
			got := get(t, coord, path)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("finish %s on one replica: %q differs (%d vs %d): %s", name, q, got.Code, want.Code, got.Body)
			}
		}
		if elapsed := time.Since(start); elapsed > 4*(scfg.ShardTimeout+100*time.Millisecond) {
			t.Fatalf("finish %s: 4 queries took %v, each failover must fit one ShardTimeout (%v)", name, elapsed, scfg.ShardTimeout)
		}
		snap := coord.metrics.Snapshot()
		if snap.Failovers == 0 || snap.RenderCalls <= snap.Searches || snap.RowsRendered != snap.RowsServed {
			t.Fatalf("finish %s: the broken replicas were never tried: %+v", name, snap)
		}
	}

	// No range can finish: 503, whatever the partial policy.
	for _, allow := range []bool{false, true} {
		scfg.AllowPartial = allow
		coord := wrappedCluster(t, 2, []int{0, 1}, func(_ int, srv http.Handler) http.Handler {
			return onFinish(srv, fail)
		}, nocache, scfg)
		rec := get(t, coord, "/search?q="+urlQuery(queries[0])+"&limit=10")
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("finish down everywhere (partial %v) = %d (Retry-After %q), want 503 with a hint: %s",
				allow, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
		if snap := coord.metrics.Snapshot(); snap.RowsServed != 0 || snap.Searches != 0 {
			t.Fatalf("a page nobody finished counted %d rows, %d searches", snap.RowsServed, snap.Searches)
		}
	}

	// 3 ranges, range 0 answers rows but cannot finish. Three requests make
	// each range the finisher once: with range 0 it is a 503 by default and,
	// with AllowPartial, the page of ranges 1 and 2 finished by range 1.
	path := "/search?q=" + urlQuery(query) + "&limit=10&offset=2"
	exact := get(t, ref, path).Body.Bytes()
	range0 := par.Shards(sys.Corpus.Len(), 3)[0]
	degraded := partialPage(t, ref, query, 2, 10, func(paper int) bool { return paper >= range0.Hi })
	if bytes.Equal(exact[:len(exact)-1], degraded[:len(exact)-1]) {
		t.Fatal("fixture: range 0 holds no row of the page, the degraded page would prove nothing")
	}
	for _, allow := range []bool{false, true} {
		scfg.AllowPartial = allow
		coord := wrappedCluster(t, 3, []int{0, 1, 2}, func(i int, srv http.Handler) http.Handler {
			if i == 0 {
				return onFinish(srv, fail)
			}
			return srv
		}, nocache, scfg)
		var codes []int
		for k := 0; k < 3; k++ {
			rec := get(t, coord, path)
			codes = append(codes, rec.Code)
			want := exact
			if k == 0 {
				want = degraded
			}
			if rec.Code == 200 && !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("partial %v, request %d differs\ncoordinator: %s\nwant:        %s", allow, k, rec.Body, want)
			}
		}
		first := map[bool]int{false: 503, true: 200}[allow]
		if codes[0] != first || codes[1] != 200 || codes[2] != 200 {
			t.Fatalf("partial %v: statuses %v, want [%d 200 200]", allow, codes, first)
		}
		snap := coord.metrics.Snapshot()
		if want := map[bool]uint64{false: 0, true: 1}[allow]; snap.Partial != want || snap.Shards[0].Errors != 1 {
			t.Fatalf("partial %v: %d partial pages (want %d), range 0 errors %d (want 1)", allow, snap.Partial, want, snap.Shards[0].Errors)
		}
		// The degraded page asked range 1 twice: for its rows, then to finish.
		if want := map[bool]uint64{false: 3, true: 4}[allow]; snap.Shards[1].Requests != want {
			t.Fatalf("partial %v: range 1 saw %d requests, want %d", allow, snap.Shards[1].Requests, want)
		}
	}

	// Range 0 gone altogether (connection refused), AllowPartial: whichever
	// range is asked to finish, the page is the same degraded one.
	scfg.AllowPartial = true
	coord := wrappedCluster(t, 3, []int{0, 1, 2}, func(i int, srv http.Handler) http.Handler {
		if i == 0 {
			return nil
		}
		return srv
	}, nocache, scfg)
	for k := 0; k < 3; k++ {
		if rec := get(t, coord, path); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), degraded) {
			t.Fatalf("range 0 dead, request %d (%d) differs\ncoordinator: %s\nwant:        %s", k, rec.Code, rec.Body, degraded)
		}
	}
	if snap := coord.metrics.Snapshot(); snap.Partial != 3 {
		t.Fatalf("range 0 dead: %d of 3 pages flagged partial", snap.Partial)
	}
}

// TestCoordinatorExchangesPerPage: a page costs one /shard/search exchange per
// range — full, empty, deep in the ranking or boolean — by the coordinator's
// own per-range counters and by what the shards saw arrive; exactly one of
// them carries "finish", and the finishing rotates over the ranges.
func TestCoordinatorExchangesPerPage(t *testing.T) {
	_, _, _, query := testState(t)
	paths := []string{
		"/search?q=" + urlQuery(query) + "&limit=10",
		"/search?q=" + urlQuery(query) + "&limit=3&offset=4",
		"/search?q=" + urlQuery(query) + "&limit=5&boolean=1",
		"/search?q=" + urlQuery(query) + "&limit=10&offset=5000",
		"/search?q=qqqzzz+unknown+words&limit=10",
		"/search?q=" + urlQuery(query) + "&limit=7&threshold=0.05",
	}
	for _, n := range []int{1, 2, 3} {
		ranges := make([]int, n)
		plain := make([]atomic.Int64, n)
		finished := make([]atomic.Int64, n)
		var other atomic.Int64
		for i := range ranges {
			ranges[i] = i
		}
		coord := wrappedCluster(t, n, ranges, func(i int, srv http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case finishing(r):
					finished[i].Add(1)
				case r.URL.Path == "/shard/search":
					plain[i].Add(1)
				default:
					other.Add(1)
				}
				srv.ServeHTTP(w, r)
			})
		}, Config{CacheEntries: -1}, ShardConfig{})
		for _, path := range paths {
			if rec := get(t, coord, path); rec.Code != 200 {
				t.Fatalf("%d ranges: %s = %d: %s", n, path, rec.Code, rec.Body)
			}
		}
		pages := uint64(len(paths))
		snap := coord.metrics.Snapshot()
		if got := rangeRequests(snap); got != pages*uint64(n) || snap.Searches != pages || snap.RenderCalls != pages {
			t.Fatalf("%d ranges, %d pages: %d range requests, %d searches, %d finishing calls", n, pages, got, snap.Searches, snap.RenderCalls)
		}
		var sawPlain, sawFinishing int64
		for i := range ranges {
			sawPlain += plain[i].Load()
			sawFinishing += finished[i].Load()
			if want := int64(len(paths) / n); finished[i].Load() != want {
				t.Fatalf("%d ranges: range %d finished %d of %d pages, want %d", n, i, finished[i].Load(), pages, want)
			}
		}
		if sawFinishing != int64(pages) || sawPlain != int64(pages)*int64(n-1) || other.Load() != 0 {
			t.Fatalf("%d ranges, %d pages: shards saw %d finishing, %d plain and %d other requests", n, pages, sawFinishing, sawPlain, other.Load())
		}
	}
}

// TestCoordinatorFinisherOutsidePage: pages that hold none of the finisher's
// own rows — all of them rank before the offset, or all after the page —
// are still the single server's: the finisher's rows count towards the
// offset without crossing the wire.
func TestCoordinatorFinisherOutsidePage(t *testing.T) {
	sys, cs, m, _ := testState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	ranges := par.Shards(sys.Corpus.Len(), 2)
	coord := wrappedCluster(t, 2, []int{0, 1}, func(_ int, srv http.Handler) http.Handler { return srv }, Config{CacheEntries: -1}, ShardConfig{})
	before, after := 0, 0
	for _, q := range coordQueries(t) {
		var full SearchResponse
		if err := json.Unmarshal(get(t, ref, "/search?q="+urlQuery(q)+"&limit=1000").Body.Bytes(), &full); err != nil {
			t.Fatal(err)
		}
		for fin := 0; fin < 2; fin++ {
			// The finisher's best and worst rank in the whole list.
			lo, hi := -1, -1
			for i, r := range full.Results {
				if own := ranges[fin]; r.PaperID >= own.Lo && r.PaperID < own.Hi {
					if lo < 0 {
						lo = i
					}
					hi = i
				}
			}
			var paths []string
			if lo > 0 {
				after++
				paths = append(paths, fmt.Sprintf("/search?q=%s&limit=%d", urlQuery(q), lo))
			}
			if hi >= 0 && hi+1 < len(full.Results) {
				before++
				paths = append(paths, fmt.Sprintf("/search?q=%s&limit=10&offset=%d", urlQuery(q), hi+1))
			}
			for _, path := range paths {
				want := get(t, ref, path)
				// Twice: each range finishes the page once.
				for k := 0; k < 2; k++ {
					if got := get(t, coord, path); got.Code != 200 || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Fatalf("%s (range %d outside the page), request %d\ncoordinator: %s\nsingle:      %s", path, fin, k, got.Body, want.Body)
					}
				}
			}
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("fixture: %d pages past all of a range's rows, %d pages before any — need both", before, after)
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
	coord := NewCoordinator(urls, Config{CacheEntries: -1}, ShardConfig{ProbeInterval: -1})
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
	coord, _ := shardCluster(t, 2, ShardConfig{})
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

// TestCoordinatorRelaysClientError: a query every shard rejects (unparsable
// boolean) comes back as the shard's 400, not a 503 and not a partial page.
func TestCoordinatorRelaysClientError(t *testing.T) {
	coord, _ := shardCluster(t, 3, ShardConfig{AllowPartial: true})
	rec := get(t, coord, "/search?q="+urlQuery("AND AND (")+"&boolean=1")
	if rec.Code != 400 {
		t.Fatalf("unparsable boolean through coordinator = %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("400 body lacks error payload: %s", rec.Body)
	}
}

// TestCoordinatorDeadShard: a connection-refused shard fails the query with
// 503 by default.
func TestCoordinatorDeadShard(t *testing.T) {
	_, backends := shardCluster(t, 3, ShardConfig{})
	_, _, _, query := testState(t)
	// Re-front the same shards with one of them shut down.
	urls := []string{backends[0].URL, backends[1].URL, backends[2].URL}
	dead := httptest.NewServer(http.NewServeMux())
	urls[1] = dead.URL
	dead.Close() // now refuses connections
	coord := NewCoordinator(urls, Config{}, ShardConfig{})
	t.Cleanup(coord.Close)
	rec := get(t, coord, "/search?q="+urlQuery(query)+"&limit=5")
	if rec.Code != 503 {
		t.Fatalf("dead shard = %d, want 503: %s", rec.Code, rec.Body)
	}
	snap := coord.metrics.Snapshot()
	if snap.Shards[1].Errors == 0 {
		t.Fatalf("dead shard not counted as error: %+v", snap)
	}

	// /stats fails over past the dead shard: every round-robin position
	// must still answer 200 with the coordinator's own counters attached.
	for k := 0; k < 3; k++ {
		rec := get(t, coord, "/stats")
		if rec.Code != 200 {
			t.Fatalf("stats pick %d with dead shard = %d, want 200: %s", k, rec.Code, rec.Body)
		}
		var st StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("stats pick %d: %v", k, err)
		}
		if st.Sharding == nil {
			t.Fatalf("stats pick %d lost the sharding counters", k)
		}
	}
}

// TestCoordinatorHangingShard: a shard that never answers resolves into a
// 503 within the per-shard timeout — the coordinator never hangs.
func TestCoordinatorHangingShard(t *testing.T) {
	_, backends := shardCluster(t, 2, ShardConfig{})
	_, _, _, query := testState(t)
	// The handler must block without reading the request body: with the
	// body unread the server cannot observe the coordinator abandoning the
	// connection, which is exactly the worst-case hang. The stop channel
	// releases it at cleanup so the httptest server can close.
	stop := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(func() {
		close(stop)
		hang.Close()
	})
	coord := NewCoordinator([]string{backends[0].URL, hang.URL}, Config{}, ShardConfig{ShardTimeout: 100 * time.Millisecond})
	t.Cleanup(coord.Close)
	start := time.Now()
	rec := get(t, coord, "/search?q="+urlQuery(query)+"&limit=5")
	elapsed := time.Since(start)
	if rec.Code != 503 {
		t.Fatalf("hanging shard = %d, want 503: %s", rec.Code, rec.Body)
	}
	if elapsed > time.Second {
		t.Fatalf("coordinator took %v to give up on a hanging shard", elapsed)
	}
	snap := coord.metrics.Snapshot()
	if snap.Shards[1].Timeouts == 0 {
		t.Fatalf("hang not counted as timeout: %+v", snap)
	}
}

// TestCoordinatorPartial: with AllowPartial, a failing shard degrades the
// page (200, "partial": true, healthy shards' rows only) instead of failing
// it; the degraded body is never cached, so a recovered shard immediately
// restores the exact, unflagged page.
func TestCoordinatorPartial(t *testing.T) {
	sys, cs, m, query := testState(t)
	g := sliceGroup(t, sys, cs, m, 2)

	srv0 := NewPending(Config{})
	srv0.SetReadyMapped(sys, cs, m, g.Engine(0), nil)
	ts0 := httptest.NewServer(srv0)
	t.Cleanup(ts0.Close)

	// Shard 1 fails its first /shard/search with a 500, then recovers.
	srv1 := NewPending(Config{})
	srv1.SetReadyMapped(sys, cs, m, g.Engine(1), nil)
	var failures atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/shard/") && failures.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		srv1.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	// MaxRetries is disabled: a retry would heal the one-shot 500 and
	// never produce the partial page this test is about.
	coord := NewCoordinator([]string{ts0.URL, flaky.URL}, Config{}, ShardConfig{AllowPartial: true, MaxRetries: -1})
	t.Cleanup(coord.Close)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	path := "/search?q=" + urlQuery(query) + "&limit=10"

	rec := get(t, coord, path)
	if rec.Code != 200 {
		t.Fatalf("degraded search = %d: %s", rec.Code, rec.Body)
	}
	// The degraded page is the single server's ranking restricted to the
	// healthy range, rendered the same and flagged: byte for byte.
	var full SearchResponse
	if err := json.Unmarshal(get(t, ref, "/search?q="+urlQuery(query)+"&limit=1000").Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	want := SearchResponse{Query: query, Results: []SearchResult{}, Partial: true}
	for _, r := range full.Results {
		if r.PaperID < par.Shards(sys.Corpus.Len(), 2)[0].Hi && len(want.Results) < 10 {
			want.Results = append(want.Results, r)
		}
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) == 0 || !bytes.Equal(rec.Body.Bytes(), wantBody) {
		t.Fatalf("degraded page differs\ncoordinator: %s\nwant:        %s", rec.Body, wantBody)
	}

	// Recovered: same request now serves the exact page, unflagged —
	// proving the partial body was not cached.
	rec = get(t, coord, path)
	exact := get(t, ref, path)
	if rec.Code != 200 || rec.Body.String() != exact.Body.String() {
		t.Fatalf("recovered search not exact:\ncoordinator: %s\nsingle:      %s", rec.Body, exact.Body)
	}
	snap := coord.metrics.Snapshot()
	if snap.Partial != 1 {
		t.Fatalf("partial counter = %d, want 1", snap.Partial)
	}
}

// TestCoordinatorCache: identical queries hit the coordinator's body cache
// instead of re-fanning out.
func TestCoordinatorCache(t *testing.T) {
	coord, _ := shardCluster(t, 2, ShardConfig{})
	_, _, _, query := testState(t)
	path := "/search?q=" + urlQuery(query) + "&limit=7"
	first := get(t, coord, path)
	second := get(t, coord, path)
	if first.Code != 200 || second.Code != 200 || first.Body.String() != second.Body.String() {
		t.Fatalf("cached replay differs: %d %d", first.Code, second.Code)
	}
	snap := coord.metrics.Snapshot()
	if got := snap.Shards[0].Requests; got != 1 {
		t.Fatalf("shard 0 saw %d search requests, want 1 (second must be served from cache)", got)
	}
	cst := coord.cache.Stats()
	if cst.Hits != 1 || cst.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", cst)
	}
}

// TestCoordinatorProxyEndpoints: /stats answers through the coordinator with
// the corpus and a sharding section (the proxied /papers and /contexts are
// rows of the HTTP spine battery).
func TestCoordinatorProxyEndpoints(t *testing.T) {
	sys, _, _, query := testState(t)
	coord, _ := shardCluster(t, 3, ShardConfig{})
	// Run one search so the sharding section has traffic, then check /stats.
	get(t, coord, "/search?q="+urlQuery(query)+"&limit=3")
	rec := get(t, coord, "/stats")
	if rec.Code != 200 {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
	}
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Papers != sys.Corpus.Len() {
		t.Fatalf("stats papers = %d, want %d", stats.Papers, sys.Corpus.Len())
	}
	if stats.Sharding == nil {
		t.Fatal("coordinator stats lack sharding section")
	}
	if stats.Sharding.Searches == 0 || len(stats.Sharding.Shards) != 3 {
		t.Fatalf("sharding stats = %+v", stats.Sharding)
	}
	var requests uint64
	for _, s := range stats.Sharding.Shards {
		requests += s.Requests
	}
	if requests == 0 {
		t.Fatal("no shard requests counted")
	}
}

// TestCoordinatorReadyz: the coordinator is ready only when every shard is.
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
	srv := NewPending(Config{QueryTimeout: -1})
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
// one exchange and the one verdict /search uses, over the real transport. A
// backend that sends its header and then stalls /papers/1 past ShardTimeout
// is a timeout of that replica, not an error, and a proxied request the
// client abandons is a request that says nothing about the replica.
func TestCoordinatorProxyStallIsATimeout(t *testing.T) {
	sys, cs, m, _ := testState(t)
	srv := NewPending(Config{}).install(sys, cs, m)
	stop := make(chan struct{})
	stalled := make(chan struct{}, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/papers/1" {
			srv.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		stalled <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	}))
	t.Cleanup(func() {
		close(stop)
		ts.Close()
	})
	coord := NewCoordinator([]string{ts.URL}, Config{}, ShardConfig{ShardTimeout: 100 * time.Millisecond, ProbeInterval: -1})
	t.Cleanup(coord.Close)

	if rec := get(t, coord, "/papers/1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stalled /papers/1 = %d, want 503: %s", rec.Code, rec.Body)
	}
	<-stalled
	replica := func() shard.ReplicaStat {
		t.Helper()
		var st StatsResponse
		if rec := get(t, coord, "/stats"); rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			t.Fatalf("/stats = %d: %s", rec.Code, rec.Body)
		}
		return st.Sharding.Replicas[0]
	}
	if rs := replica(); rs.Timeouts != 1 || rs.Errors != 0 {
		t.Fatalf("after one stalled body: %+v, want timeouts 1, errors 0", rs)
	}

	// The client leaves while the body stalls.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/papers/1", nil).WithContext(ctx))
	}()
	<-stalled
	before := coord.metrics.Snapshot().Replicas[0].Requests
	cancel()
	<-done
	if rs := replica(); rs.Requests != before+2 || rs.Timeouts != 1 || rs.Errors != 0 || rs.State != "closed" {
		t.Fatalf("after an abandoned proxied request: %+v, want %d requests (it, and this /stats), timeouts 1, errors 0, breaker closed", rs, before+2)
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
