package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctxsearch/internal/resilience"
)

// The replicated-serving tests run on the simulator (policy_sim_test.go), as
// the coordinator tests do: a schedule, the pages served, and what the
// mechanism must have done on top of the checker's properties.

// TestReplicatedGoldenUnderFaults is the acceptance battery: 3 ranges x 2
// replicas, the first replica of each permanently broken in its own way — a
// 500, past the shard timeout, a 200 of the wrong shape. Every request of the
// table, twice, is answered as the single server answers it, by failover
// alone: no range call fails, no page is partial, and the breakers trip.
func TestReplicatedGoldenUnderFaults(t *testing.T) {
	broken := map[simKey]simKind{}
	for i := 0; i < 64; i++ {
		broken[simKey{0, i}], broken[simKey{2, i}], broken[simKey{4, i}] = sim5xx, simTimeout, simShapeA
	}
	sh := simShape{ranges: 3, replicas: 2}
	s := newSimRun(simClusterFor(t, 3), sh, broken, simTuning())
	serve := func(pg *simPage) {
		t.Helper()
		for k := 0; k < 2; k++ {
			if rec := s.serve(pg); rec.Code != pg.code {
				t.Fatalf("%s under faults = %d, the single server's %d: %s", pg.name, rec.Code, pg.code, rec.Body)
			}
		}
	}
	for _, pg := range s.cl.pages {
		serve(pg)
	}
	snap := s.coord.metrics.Snapshot()
	if snap.Failovers == 0 || snap.BreakerOpens != 3 || snap.Partial != 0 {
		t.Fatalf("%d failovers, %d breakers opened, %d partial pages; want some, 3, 0", snap.Failovers, snap.BreakerOpens, snap.Partial)
	}
	for ri, sc := range snap.Shards {
		if sc.Errors+sc.Timeouts != 0 {
			t.Fatalf("range %d recorded a failed range call — every call must be rescued: %+v", ri, sc)
		}
	}
	if len(s.violations) > 0 {
		t.Fatal(strings.Join(s.violations, "\n"))
	}
}

// TestBreakerTripsAndRecovers: health probes alone move a breaker. Failed
// probes trip a dead replica's breaker before any query pays for it, and
// pages stay exact off its sibling; a successful probe does not close it
// inside the cool-down, and past it the probe is the half-open one and closes
// it, so the healed replica serves again without a query spent on the
// discovery. (Queries tripping it is TestPolicySimBreakerCooldown.)
func TestBreakerTripsAndRecovers(t *testing.T) {
	sh := simShape{ranges: 1, replicas: 2}
	s := newSimRun(simClusterFor(t, 1), sh, nil, simTuning())
	pg := s.cl.page(t, "offset")
	for i := 0; i < simThreshold; i++ {
		s.probe(0, false)
	}
	s.probe(0, true)
	for k := 0; k < 4; k++ {
		s.serve(pg)
	}
	if st := s.coord.breakers[0].State(); st != resilience.Open || s.next[0] != 0 {
		t.Fatalf("after %d failed probes: breaker %v, %d calls to the replica", simThreshold, st, s.next[0])
	}
	s.clock.Add(int64(simCooldown))
	s.probe(0, true)
	for k := 0; k < 2; k++ {
		s.serve(pg)
	}
	if st := s.coord.breakers[0].State(); st != resilience.Closed || s.next[0] != 1 {
		t.Fatalf("after the cool-down and a good probe: breaker %v, %d calls to the replica, want closed and 1", st, s.next[0])
	}
	if len(s.violations) > 0 {
		t.Fatal(strings.Join(s.violations, "\n"))
	}
}

// TestHedgeWins: with hedging, a primary slower than HedgeAfter is raced by
// a hedge to its fresh sibling. When the primary then fails, the hedge's
// answer is the page and its win is counted; when it is merely slow, the
// page is the same whichever answer is taken. (That every owed hedge is sent
// is a checker property.)
func TestHedgeWins(t *testing.T) {
	sh := simShape{ranges: 1, replicas: 2, hedge: true}
	for k, won := range map[simKind]uint64{simTimeout: 1, simSlowOK: 0} {
		s, recs := simServe(t, sh, simTuning(), map[simKey]simKind{{0, 0}: k}, "offset")
		snap := s.coord.metrics.Snapshot()
		if recs[0].Code != 200 || snap.Hedges != 1 || snap.HedgesWon < won {
			t.Fatalf("%v primary: %d, %d hedges, %d won", k, recs[0].Code, snap.Hedges, snap.HedgesWon)
		}
	}
}

// TestChaosReplicaKill: replicas are lost mid-traffic, one per range — from
// some call on, each fails every call — and every page stays the single
// server's, by failover.
func TestChaosReplicaKill(t *testing.T) {
	kills := map[simKey]simKind{}
	for i := 0; i < 32; i++ {
		kills[simKey{0, 2 + i}], kills[simKey{2, 5 + i}] = sim5xx, simTimeout
	}
	var pages []string
	for k := 0; k < 4; k++ {
		pages = append(pages, "offset", "boolean", "after range 0")
	}
	sh := simShape{ranges: 2, replicas: 2}
	s, recs := simServe(t, sh, simTuning(), kills, pages...)
	for i, rec := range recs {
		if rec.Code != 200 {
			t.Fatalf("page %d (%s) after the kills = %d: %s", i, pages[i], rec.Code, rec.Body)
		}
	}
	if snap := s.coord.metrics.Snapshot(); snap.Failovers == 0 || snap.Partial != 0 {
		t.Fatalf("kills: %d failovers, %d partial pages", snap.Failovers, snap.Partial)
	}
}

// TestAllReplicasDown: when every replica of a range fails, the query fails
// with a 503 whose Retry-After is the breaker cool-down, the longer of it and
// the shard timeout — the soonest a retry could plausibly see a recovered backend —
// and whose body is a JSON error.
func TestAllReplicasDown(t *testing.T) {
	down := map[simKey]simKind{}
	for i := 0; i < 1+simMaxRetries; i++ {
		down[simKey{0, i}], down[simKey{1, i}] = sim5xx, sim5xx
	}
	sh := simShape{ranges: 1, replicas: 2}
	_, recs := simServe(t, sh, simTuning(), down, "offset")
	rec := recs[0]
	if got := rec.Header().Get("Retry-After"); rec.Code != 503 || got != "3" {
		t.Fatalf("dead range = %d with Retry-After %q, want 503 and %q (the breaker cool-down)", rec.Code, got, "3")
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("503 body not a JSON error: %q (%v)", rec.Body, err)
	}
}

// TestServingConstantsOrder pins the order the serving constants keep: a
// shard attempt ends inside the request deadline, which ends inside the HTTP
// write timeout, so each failure is still answered in time; and a production
// coordinator whose range is down answers 503 with the Retry-After of the
// longer of the shard timeout and the breaker cool-down.
func TestServingConstantsOrder(t *testing.T) {
	for _, c := range []struct {
		what            string
		shorter, longer time.Duration
	}{
		{"shard timeout < query deadline", shardTimeout, queryTimeout},
		{"query deadline < HTTP write timeout", queryTimeout, writeTimeout},
	} {
		if c.shorter >= c.longer {
			t.Errorf("%s: %v, %v", c.what, c.shorter, c.longer)
		}
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coord := NewCoordinator([]string{dead.URL}, Config{}, ShardConfig{})
	defer coord.Close()
	rec := get(t, coord, "/search?q=x")
	if got, want := rec.Header().Get("Retry-After"), retryAfterSecs(max(shardTimeout, breakerCooldown)); rec.Code != 503 || got != want || want != "2" {
		t.Errorf("dead range = %d with Retry-After %q, want 503 and %q (of %v and %v), which is \"2\"", rec.Code, got, want, shardTimeout, breakerCooldown)
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
	sys, cs, m, query := testState(t)
	coord := clusterOver(t, sys, cs, m, 2, 2, ShardConfig{})
	get(t, coord, "/search?q="+urlQuery(query)+"&limit=3")

	var stats StatsResponse
	if rec := get(t, coord, "/stats"); rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &stats) != nil || stats.Sharding == nil || len(stats.Sharding.Replicas) != 4 {
		t.Fatalf("stats = %d, want 4 replicas (2 ranges x 2): %s", rec.Code, rec.Body)
	}
	var searched uint64
	for g, rs := range stats.Sharding.Replicas {
		if rs.URL != coord.backends[g] || rs.State != "closed" || rs.Range != g/2 {
			t.Fatalf("replica %d: url %q, breaker %q, range %d; want %q, closed, %d", g, rs.URL, rs.State, rs.Range, coord.backends[g], g/2)
		}
		searched += rs.Requests
	}
	if searched == 0 {
		t.Fatal("no replica-level requests counted")
	}
}
