package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ctxsearch/internal/faultproxy"
	"ctxsearch/internal/resilience"
)

// fastResilience is the deterministic test tuning: no health prober (no
// background traffic perturbing request-index fault scripts), millisecond
// jitter-free backoff, a short per-attempt timeout so hang faults resolve
// quickly, and an ample budget so correctness tests are not about the
// budget (TestRetryStormBounded covers that).
func fastResilience() ShardConfig {
	return ShardConfig{
		ShardTimeout:     100 * time.Millisecond,
		ProbeInterval:    -1,
		RetryBudget:      100,
		RetryRatio:       0.5,
		BreakerThreshold: 3,
		Backoff:          resilience.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: -1},
	}
}

// replicatedCluster boots nRanges shard ranges, each served by two
// byte-identical replicas (two listeners over one range-restricted
// server). scripts[ri], when non-nil, interposes a fault proxy in front of
// replica 0 of that range. The coordinator's cache is disabled so every
// request exercises the fan-out.
func replicatedCluster(t *testing.T, nRanges int, scripts []faultproxy.Script, scfg ShardConfig) *Coordinator {
	t.Helper()
	sys, cs, m, _ := testState(t)
	g := sliceGroup(t, sys, cs, m, nRanges)
	var urls []string
	for ri := 0; ri < g.NumShards(); ri++ {
		srv := NewPending(Config{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(ri), nil)
		a := httptest.NewServer(srv)
		t.Cleanup(a.Close)
		b := httptest.NewServer(srv)
		t.Cleanup(b.Close)
		aURL := a.URL
		if ri < len(scripts) && scripts[ri] != nil {
			p, err := faultproxy.New(a.URL, scripts[ri])
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(p.Close)
			aURL = p.URL()
		}
		urls = append(urls, aURL+"|"+b.URL)
	}
	coord := NewCoordinator(urls, Config{CacheEntries: -1}, scfg)
	t.Cleanup(coord.Close)
	return coord
}

// TestReplicatedGoldenUnderFaults is the acceptance battery: a 3-range ×
// 2-replica cluster where one replica per range is permanently broken in a
// different way (5xx bursts, hanging, connection resets). Every /search
// must succeed via failover AND be byte-identical to a single-engine
// server — fault handling must never change what the client reads, only
// how it is obtained.
func TestReplicatedGoldenUnderFaults(t *testing.T) {
	sys, cs, m, _ := testState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)

	always := func(f faultproxy.Fault) faultproxy.Script {
		return func(i int, r *http.Request) faultproxy.Fault {
			if r.URL.Path == "/shard/search" {
				return f
			}
			return faultproxy.Fault{}
		}
	}
	coord := replicatedCluster(t, 3, []faultproxy.Script{
		always(faultproxy.Fault{Status: http.StatusInternalServerError}), // range 0: flaky 5xx
		always(faultproxy.Fault{Hang: true}),                             // range 1: wedged
		always(faultproxy.Fault{Reset: true}),                            // range 2: resets
	}, fastResilience())

	queries := coordQueries(t)
	rng := rand.New(rand.NewSource(23))
	searches := 0
	for qi, q := range queries {
		for trial := 0; trial < 3; trial++ {
			params := "q=" + urlQuery(q) + fmt.Sprintf("&limit=%d", 1+rng.Intn(20))
			if rng.Intn(2) == 0 {
				params += fmt.Sprintf("&offset=%d", rng.Intn(15))
			}
			if rng.Intn(3) == 0 {
				params += "&boolean=1"
			}
			want := get(t, ref, "/search?"+params)
			got := get(t, coord, "/search?"+params)
			label := fmt.Sprintf("query %d %q trial %d params %s", qi, q, trial, params)
			if got.Code != want.Code {
				t.Fatalf("%s: coordinator %d, single server %d\n%s", label, got.Code, want.Code, got.Body)
			}
			if got.Body.String() != want.Body.String() {
				t.Fatalf("%s: bodies differ under faults\ncoordinator: %s\nsingle:      %s", label, got.Body, want.Body)
			}
			searches++
		}
	}

	snap := coord.metrics.Snapshot()
	if snap.Failovers == 0 {
		t.Fatalf("no failovers recorded across %d searches against half-broken replicas: %+v", searches, snap)
	}
	if snap.BreakerOpens == 0 {
		t.Fatalf("no breaker ever tripped against permanently broken replicas: %+v", snap)
	}
	if snap.Partial != 0 {
		t.Fatalf("%d partial pages served — failover must keep answers exact", snap.Partial)
	}
	for ri := range snap.Shards {
		if snap.Shards[ri].Errors+snap.Shards[ri].Timeouts != 0 {
			t.Fatalf("range %d recorded a range-level failure — every call must be rescued: %+v", ri, snap)
		}
	}
}

// TestBreakerTripsAndRecovers: a replica that fails its first shard
// requests trips its breaker (queries stop paying for it), then heals —
// after the cool-down a half-open probe readmits it and the breaker
// closes.
func TestBreakerTripsAndRecovers(t *testing.T) {
	_, _, _, query := testState(t)
	scfg := fastResilience()
	scfg.BreakerThreshold = 2
	scfg.BreakerCooldown = 150 * time.Millisecond
	// Replica 0 of the single range 500s its first two search requests,
	// then recovers.
	coord := replicatedCluster(t, 1, []faultproxy.Script{
		func(i int, r *http.Request) faultproxy.Fault {
			if r.URL.Path == "/shard/search" && i < 2 {
				return faultproxy.Fault{Status: http.StatusInternalServerError}
			}
			return faultproxy.Fault{}
		},
	}, scfg)

	for i := 0; i < 6; i++ {
		rec := get(t, coord, fmt.Sprintf("/search?q=%s&limit=%d", urlQuery(query), 1+i))
		if rec.Code != 200 {
			t.Fatalf("search %d during replica flap = %d: %s", i, rec.Code, rec.Body)
		}
	}
	snap := coord.metrics.Snapshot()
	if snap.BreakerOpens == 0 {
		t.Fatalf("breaker never tripped after repeated 500s: %+v", snap)
	}

	// Past the cool-down, traffic readmits the recovered replica and the
	// breaker closes again.
	time.Sleep(scfg.BreakerCooldown + 50*time.Millisecond)
	before := coord.metrics.Snapshot().Replicas[0].Requests
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		rec := get(t, coord, fmt.Sprintf("/search?q=%s&limit=%d", urlQuery(query), 30+i))
		if rec.Code != 200 {
			t.Fatalf("post-recovery search = %d: %s", rec.Code, rec.Body)
		}
		s := coord.metrics.Snapshot()
		if s.Replicas[0].Requests > before && s.Replicas[0].Errors == before {
			break // the healed replica served again, cleanly
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered replica never readmitted: %+v", s)
		}
	}
}

// TestHedgeWins: with hedging on, a slow replica no longer sets the
// latency floor — the hedge to the fast replica answers first, the page
// stays exact, and the win is counted.
func TestHedgeWins(t *testing.T) {
	sys, cs, m, _ := testState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	queries := coordQueries(t)

	scfg := fastResilience()
	scfg.ShardTimeout = 2 * time.Second
	scfg.HedgeAfter = 20 * time.Millisecond
	coord := replicatedCluster(t, 1, []faultproxy.Script{
		func(i int, r *http.Request) faultproxy.Fault {
			if r.URL.Path == "/shard/search" {
				return faultproxy.Fault{Delay: 600 * time.Millisecond}
			}
			return faultproxy.Fault{}
		},
	}, scfg)

	start := time.Now()
	for qi, q := range queries[:4] {
		path := "/search?q=" + urlQuery(q) + "&limit=10"
		want := get(t, ref, path)
		got := get(t, coord, path)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("query %d %q: hedged page differs (%d vs %d)\ncoordinator: %s\nsingle:      %s",
				qi, q, got.Code, want.Code, got.Body, want.Body)
		}
	}
	// 4 queries, roughly half first-routed to the 600ms replica: without
	// hedging that is >= 1.2s. With hedging every query resolves in tens
	// of milliseconds.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("4 hedged queries took %v — hedging is not cutting tail latency", elapsed)
	}
	snap := coord.metrics.Snapshot()
	if snap.HedgesWon == 0 {
		t.Fatalf("no hedge ever won against a 600ms replica: %+v", snap)
	}
}

// TestChaosReplicaKill: replicas of a live cluster are killed one per
// range mid-traffic; every search keeps succeeding byte-identically, and
// /readyz degrades only when a range loses its last replica.
func TestChaosReplicaKill(t *testing.T) {
	sys, cs, m, _ := testState(t)
	ref := NewPending(Config{})
	ref.install(sys, cs, m)
	g := sliceGroup(t, sys, cs, m, 2)

	var urls []string
	var killable []*httptest.Server
	for ri := 0; ri < g.NumShards(); ri++ {
		srv := NewPending(Config{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(ri), nil)
		a := httptest.NewServer(srv)
		killable = append(killable, a) // closed mid-test
		b := httptest.NewServer(srv)
		t.Cleanup(b.Close)
		urls = append(urls, a.URL+"|"+b.URL)
	}
	coord := NewCoordinator(urls, Config{CacheEntries: -1}, fastResilience())
	t.Cleanup(coord.Close)
	queries := coordQueries(t)

	check := func(stage string) {
		t.Helper()
		for _, q := range queries[:5] {
			path := "/search?q=" + urlQuery(q) + "&limit=10"
			want := get(t, ref, path)
			got := get(t, coord, path)
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%s: %q differs (%d vs %d): %s", stage, q, got.Code, want.Code, got.Body)
			}
		}
	}

	check("all replicas up")
	if rec := get(t, coord, "/readyz"); rec.Code != 200 {
		t.Fatalf("readyz with full cluster = %d: %s", rec.Code, rec.Body)
	}

	killable[0].Close() // range 0 loses replica 0
	check("one replica down")
	killable[1].Close() // range 1 loses replica 0 too
	check("one replica down per range")
	// One replica per range still up: the cluster remains ready.
	if rec := get(t, coord, "/readyz"); rec.Code != 200 {
		t.Fatalf("readyz with one replica per range = %d: %s", rec.Code, rec.Body)
	}
	snap := coord.metrics.Snapshot()
	if snap.Failovers == 0 {
		t.Fatalf("kills never exercised failover: %+v", snap)
	}
}

// TestAllReplicasDown: when a whole range is gone the query fails with a
// 503 whose Retry-After is derived from the breaker cool-down — the hint
// tracks how long until a retry could plausibly succeed.
func TestAllReplicasDown(t *testing.T) {
	_, _, _, query := testState(t)
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()
	coord := NewCoordinator([]string{deadURL + "|" + deadURL}, Config{CacheEntries: -1}, ShardConfig{
		MaxRetries:      -1,
		ProbeInterval:   -1,
		BreakerCooldown: 3 * time.Second,
	})
	t.Cleanup(coord.Close)

	rec := get(t, coord, "/search?q="+urlQuery(query)+"&limit=5")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead range = %d, want 503: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q (the breaker cool-down)", got, "3")
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("503 body not a JSON error: %q (%v)", rec.Body, err)
	}
}

// TestRetryAfterSecs pins the shared Retry-After derivation helper.
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{61 * time.Second, "61"},
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.d); got != c.want {
			t.Fatalf("retryAfterSecs(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestReplicaStatsExposed: /stats surfaces the per-replica view — breaker
// state, health, and per-backend counters — that operators need during an
// incident.
func TestReplicaStatsExposed(t *testing.T) {
	_, _, _, query := testState(t)
	coord := replicatedCluster(t, 2, nil, fastResilience())
	get(t, coord, "/search?q="+urlQuery(query)+"&limit=3")

	rec := get(t, coord, "/stats")
	if rec.Code != 200 {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
	}
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sharding == nil {
		t.Fatal("stats lost the sharding section")
	}
	if len(stats.Sharding.Replicas) != 4 {
		t.Fatalf("replicas in stats = %d, want 4 (2 ranges x 2)", len(stats.Sharding.Replicas))
	}
	var searched uint64
	for g, rs := range stats.Sharding.Replicas {
		if rs.URL == "" || rs.State == "" {
			t.Fatalf("replica %d missing url/breaker state: %+v", g, rs)
		}
		if rs.Range != g/2 {
			t.Fatalf("replica %d mapped to range %d, want %d", g, rs.Range, g/2)
		}
		searched += rs.Requests
	}
	if searched == 0 {
		t.Fatal("no replica-level requests counted")
	}
}
