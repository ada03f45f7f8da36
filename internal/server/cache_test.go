package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freshServer builds an isolated server (not the shared cached fixture)
// so cache counters start at zero.
func freshServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	sys, cs, scores, query := testState(t)
	return NewPending(cfg).install(sys, cs, scores), query
}

func cacheStats(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	rec := get(t, s, "/stats")
	if rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSearchCacheHitMiss(t *testing.T) {
	s, query := freshServer(t, Config{})
	path := "/search?q=" + urlQuery(query) + "&limit=5"
	first := get(t, s, path)
	if first.Code != 200 {
		t.Fatalf("search = %d: %s", first.Code, first.Body)
	}
	second := get(t, s, path)
	if second.Code != 200 || second.Body.String() != first.Body.String() {
		t.Fatalf("cached response differs:\nfirst:  %s\nsecond: %s", first.Body, second.Body)
	}
	st := cacheStats(t, s)
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("cache stats = hits %d, misses %d, entries %d; want 1, 1, 1",
			st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	// Different options are different cache keys.
	if rec := get(t, s, path+"&offset=1"); rec.Code != 200 {
		t.Fatalf("offset search = %d", rec.Code)
	}
	if st := cacheStats(t, s); st.CacheMisses != 2 {
		t.Fatalf("distinct options must miss: misses = %d", st.CacheMisses)
	}
}

func TestSearchCacheDisabled(t *testing.T) {
	s, query := freshServer(t, Config{CacheEntries: -1})
	path := "/search?q=" + urlQuery(query) + "&limit=3"
	a, b := get(t, s, path), get(t, s, path)
	if a.Code != 200 || b.Code != 200 || a.Body.String() != b.Body.String() {
		t.Fatalf("uncached responses differ or failed: %d %d", a.Code, b.Code)
	}
	if st := cacheStats(t, s); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("disabled cache must not count: %+v", st)
	}
}

// TestSearchCacheErrorNotCached asserts failed queries (here: an
// unparsable boolean query) are never cached — each attempt recomputes.
func TestSearchCacheErrorNotCached(t *testing.T) {
	s, _ := freshServer(t, Config{})
	path := "/search?q=" + urlQuery("AND AND") + "&boolean=1"
	for i := 0; i < 2; i++ {
		if rec := get(t, s, path); rec.Code != 400 {
			t.Fatalf("attempt %d: bad boolean query = %d", i, rec.Code)
		}
	}
	st := cacheStats(t, s)
	if st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEntries != 0 {
		t.Fatalf("errors must not be cached: %+v", st)
	}
}

// TestSearchDefaultLimit pins the implicit first page: no limit parameter
// means DefaultLimit results, identical to asking for limit=100
// explicitly (modulo the cache key).
func TestSearchDefaultLimit(t *testing.T) {
	s, query := freshServer(t, Config{})
	implicit := get(t, s, "/search?q="+urlQuery(query))
	if implicit.Code != 200 {
		t.Fatalf("default-limit search = %d: %s", implicit.Code, implicit.Body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(implicit.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || len(resp.Results) > DefaultLimit {
		t.Fatalf("default limit served %d results", len(resp.Results))
	}
	explicit := get(t, s, fmt.Sprintf("/search?q=%s&limit=%d", urlQuery(query), DefaultLimit))
	if explicit.Code != 200 || explicit.Body.String() != implicit.Body.String() {
		t.Fatal("omitted limit must equal explicit limit=100")
	}
}

// TestSearchCacheInvalidatedOnSwap asserts an engine swap (SetReadyMapped)
// drops every cached response: the next identical request recomputes.
func TestSearchCacheInvalidatedOnSwap(t *testing.T) {
	sys, cs, scores, query := testState(t)
	s := NewPending(Config{}).install(sys, cs, scores)
	path := "/search?q=" + urlQuery(query) + "&limit=5"
	first := get(t, s, path)
	if first.Code != 200 {
		t.Fatalf("search = %d", first.Code)
	}
	get(t, s, path) // warm hit
	s.install(sys, cs, scores)
	after := get(t, s, path)
	if after.Code != 200 || after.Body.String() != first.Body.String() {
		t.Fatal("post-swap response differs for identical state")
	}
	st := cacheStats(t, s)
	if st.CacheMisses != 2 || st.CacheHits != 1 {
		t.Fatalf("swap must invalidate: misses %d hits %d, want 2 and 1", st.CacheMisses, st.CacheHits)
	}
}

// TestSearchCacheSingleflight fires concurrent identical cold requests
// and asserts the engine ran once while every caller got the full
// response (run under -race by make race).
func TestSearchCacheSingleflight(t *testing.T) {
	sys, cs, scores, query := testState(t)
	s := newPending(Config{}, queryDeadline(10*time.Second)).install(sys, cs, scores)
	var loads atomic.Int32
	gate := make(chan struct{})
	s.testHook = func(context.Context) {
		loads.Add(1)
		<-gate
	}
	path := "/search?q=" + urlQuery(query) + "&limit=5"
	const callers = 8
	bodies := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(t, s, path)
			if rec.Code != 200 {
				t.Errorf("caller %d: %d", i, rec.Code)
			}
			bodies[i] = rec.Body.String()
		}(i)
	}
	// Wait until at least one caller is coalesced behind the leader's
	// flight before releasing it.
	for s.cache.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("engine ran %d times for one key, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("caller %d got a different body", i)
		}
	}
}

// TestDebugHandler asserts the pprof suite is served by the dedicated
// debug handler and is absent from the public API handler.
func TestDebugHandler(t *testing.T) {
	dbg := DebugHandler()
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	dbg.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index = %d: %.120s", rec.Code, rec.Body)
	}
	s, _ := testServer(t)
	if rec := get(t, s, "/debug/pprof/"); rec.Code == 200 {
		t.Fatal("profiling endpoints must never be served on the public port")
	}
}
