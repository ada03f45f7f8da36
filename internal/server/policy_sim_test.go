// A deterministic simulator for the coordinator's failure policy (policy.go).
// The coordinator runs as built, front and cache included, over a transport
// that answers from a schedule and a clock only the test moves: no listener,
// no wall-clock wait. A schedule is keyed by (backend, per-backend call
// index), so it fixes every backend answer whatever the goroutine
// interleaving; the scheduler is left only the races the policy itself
// leaves open (which answer of a hedged pair is taken first, who gets the
// last shared retry token), and no assertion below depends on them. A run
// serves requests from a table of pages: /search pages — an offset page, a
// boolean one, empty ones, pages holding none of the first finisher's rows,
// one every range rejects — and the GETs the coordinator proxies. The
// checker states DESIGN.md's "Failure policy" and "Replicated serving" as
// properties of the call log. What only a socket can show is
// TestHTTPTransportExchange's.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctxsearch"
	"ctxsearch/internal/cache"
	"ctxsearch/internal/goldentest"
	"ctxsearch/internal/par"
	"ctxsearch/internal/resilience"
	"ctxsearch/internal/shard"
)

// simKind is what one scheduled backend call resolves to.
type simKind uint8

const (
	simOK      simKind = iota // the range server's real answer
	simSlowOK                 // the same, later than HedgeAfter
	simTimeout                // the per-attempt deadline expires
	sim5xx                    // a 500
	sim4xx                    // a 400 with a JSON error body
	simShapeA                 // a 200 not of the shape asked: undecodable rows / a page without X-Page-Rows
	simShapeB                 // likewise: rows with an unknown field / a negative X-Page-Rows
	simCancel                 // the client abandons the request while this call is out
	simKinds
)

// retriable reports the kinds after which the policy may try again.
func (k simKind) retriable() bool {
	return k == simTimeout || k == sim5xx || k == simShapeA || k == simShapeB
}

func (k simKind) String() string {
	return [...]string{"ok", "slow-ok", "timeout", "5xx", "4xx", "shape-a", "shape-b", "cancel"}[k]
}

// The simulated tuning. The backoff delays (1, 2, 4 ms) differ from
// simHedgeAfter, which is how the clock tells a hedge timer from a backoff
// sleep.
const (
	simHedgeAfter   = 10 * time.Millisecond
	simShardTimeout = 100 * time.Millisecond
	simCooldown     = 3 * time.Second // longer than simShardTimeout: Retry-After must say so
	simMaxRetries   = 2
	simThreshold    = 1 + simMaxRetries
	simBudget       = 100.0
	simRatio        = 0.5
	// simWatchdog turns a fan-out that never becomes concurrent into a
	// failure instead of a hang; nothing waits on it when the policy is right.
	simWatchdog = 2 * time.Second
)

// simShape is one cluster and policy configuration.
type simShape struct {
	ranges, replicas int
	partial, hedge   bool
}

func (sh simShape) String() string {
	return fmt.Sprintf("%d ranges x %d replicas, partial %v, hedge %v", sh.ranges, sh.replicas, sh.partial, sh.hedge)
}

type simKey struct{ g, i int }

// simReqKey is the context key under which a request carries its number.
type simReqKey struct{}

// simCluster is the fixture of one range count: the in-process range
// servers whose real handlers produce every "ok" answer (memoised — the
// payloads repeat across schedules), and the table of pages with the single
// server's answers the checker compares with.
type simCluster struct {
	n       int
	shards  []par.Shard
	servers []*Server
	pages   []*simPage

	mu     sync.Mutex
	memo   map[string]reply
	fronts map[simShape]*Coordinator
}

// simPage is one request of the table: a /search page or a proxied GET, and
// the single server's status and, for a page, its body and whole ranking.
type simPage struct {
	name, path string
	proxied    bool
	q          string
	offset     int
	limit      int
	code       int // the single server's status
	golden     []byte
	full       []SearchResult
	restricted map[uint][]byte // degraded bodies by the set of ranges answered, under the cluster's lock
}

var simClusters = map[int]*simCluster{}

// simWhole memoises the single server's whole ranking of a /search query
// string, which the clusters' pages share.
var simWhole = map[string][]SearchResult{}

func simClusterFor(t testing.TB, n int) *simCluster {
	t.Helper()
	if cl := simClusters[n]; cl != nil {
		return cl
	}
	sys, cs, m, query := testState(t)
	cl := &simCluster{n: n, shards: par.Shards(sys.Corpus.Len(), n), memo: map[string]reply{}, fronts: map[simShape]*Coordinator{}}
	g := sliceGroup(t, sys, cs, m, n)
	// No deadline, no admission cap, no cache: the zero tuning.
	off := Config{CacheEntries: -1}
	for ri := 0; ri < n; ri++ {
		srv := newPending(off, tuning{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(ri), nil)
		cl.servers = append(cl.servers, srv)
	}
	ref := newPending(off, tuning{}).install(sys, cs, m)
	page := func(name, q string, boolean bool, offset, limit int) *simPage { // appended to the table
		pg := &simPage{name: name, q: q, offset: offset, limit: limit, restricted: map[uint][]byte{}}
		params := "q=" + urlQuery(q) + map[bool]string{true: "&boolean=1"}[boolean]
		pg.path = fmt.Sprintf("/search?%s&limit=%d&offset=%d", params, limit, offset)
		rec := get(t, ref, pg.path)
		pg.code, pg.golden = rec.Code, rec.Body.Bytes()
		full, ok := simWhole[params]
		if !ok {
			var whole SearchResponse
			if rec := get(t, ref, "/search?"+params+"&limit=1000"); rec.Code == 200 && json.Unmarshal(rec.Body.Bytes(), &whole) != nil {
				t.Fatal("undecodable ranking")
			}
			full, simWhole[params] = whole.Results, whole.Results
		}
		pg.full = full
		cl.pages = append(cl.pages, pg)
		return pg
	}
	first := page("offset", query, false, 1, 3)
	for ri := 0; n > 1 && ri < n; ri++ {
		if bytes.Equal(bytes.Replace(cl.body(first, (1<<n-1)&^(1<<ri)), []byte(`,"partial":true`), nil, 1), first.golden) {
			t.Fatalf("fixture: range %d of %d holds no row of the page, losing it would prove nothing", ri, n)
		}
	}
	// The OR form of the generated boolean queries: rows in every range.
	qs := goldentest.Queries(t, sys.Ontology, m.Contexts())
	page("boolean", goldentest.Kind(qs, true)[1].Text, true, 0, 3)
	page("past the end", query, false, 5000, 3)
	page("unknown words", "qqqzzz unknown words", false, 0, 3)
	page("rejected", "AND AND (", true, 0, 3)
	// Pages holding none of range 0's rows — the finisher of a fresh
	// coordinator: they end before its best row or start after its worst, for
	// the first generated queries that have such pages.
	var before, after bool
	for _, q := range goldentest.Kind(qs, false) {
		ranked, err := sys.Engine(m).SearchContext(context.Background(), q.Text, ctxsearch.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := -1, -1
		for i, r := range ranked {
			if int(r.Doc) < cl.shards[0].Hi {
				if lo < 0 {
					lo = i
				}
				hi = i
			}
		}
		if !before && n > 1 && lo > 0 {
			page("before range 0", q.Text, false, 0, lo)
			before = true
		}
		if !after && n > 1 && hi >= 0 && hi+1 < len(ranked) {
			page("after range 0", q.Text, false, hi+1, 3)
			after = true
		}
	}
	if n > 1 && !(before && after) {
		t.Fatalf("fixture: no generated query ranks rows before range 0's (%v) or after (%v) over %d ranges", before, after, n)
	}
	for _, path := range []string{"/papers/5", "/papers/999999", "/contexts?q=" + urlQuery(query), "/stats"} {
		cl.pages = append(cl.pages, &simPage{name: path, path: path, proxied: true, code: get(t, ref, path).Code})
	}
	simClusters[n] = cl
	return cl
}

// page returns the page of the table called name.
func (cl *simCluster) page(t testing.TB, name string) *simPage {
	t.Helper()
	for _, pg := range cl.pages {
		if pg.name == name {
			return pg
		}
	}
	t.Fatalf("no page %q over %d ranges", name, cl.n)
	return nil
}

// body builds, without the cluster, the /search body of pg owed when
// exactly the ranges in set answered: the golden body for all of them, else
// the single server's whole ranking restricted to their papers, cut to the
// window and flagged.
func (cl *simCluster) body(pg *simPage, set uint) []byte {
	if set == 1<<cl.n-1 {
		return pg.golden
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if body, ok := pg.restricted[set]; ok {
		return body
	}
	want := SearchResponse{Query: pg.q, Results: []SearchResult{}, Partial: true}
	skip := pg.offset
	for _, r := range pg.full {
		ri := 0
		for r.PaperID >= cl.shards[ri].Hi {
			ri++
		}
		switch {
		case set&(1<<ri) == 0:
		case skip > 0:
			skip--
		case len(want.Results) < pg.limit:
			want.Results = append(want.Results, r)
		}
	}
	body, _ := json.Marshal(want)
	pg.restricted[set] = body
	return body
}

// answer is range ri's real answer to one backend request.
func (cl *simCluster) answer(ri int, method, uri string, payload []byte) reply {
	key := fmt.Sprintf("%d %s %s %s", ri, method, uri, payload)
	cl.mu.Lock()
	rep, ok := cl.memo[key]
	cl.mu.Unlock()
	if !ok {
		rec := httptest.NewRecorder()
		cl.servers[ri].ServeHTTP(rec, httptest.NewRequest(method, uri, bytes.NewReader(payload)))
		rep = reply{status: rec.Code, body: rec.Body.Bytes(), pageRows: rec.Header().Get(pageRowsHeader), contentType: rec.Header().Get("Content-Type")}
		cl.mu.Lock()
		cl.memo[key] = rep
		cl.mu.Unlock()
	}
	return rep
}

// simOut is what a call handed back to the policy.
type simOut uint8

const (
	outPending simOut = iota
	outOK
	outFail      // the backend's failure: timeout, 5xx, wrong shape
	outClient    // a 4xx
	outCancelled // the call's context had ended
)

// simCall is one exchange in the log.
type simCall struct {
	req, seq   int // request number, position in the log
	g, ri, idx int
	kind       simKind
	finish     bool
	hedge      bool // the second call of a hedged attempt
	ctx        context.Context
	out        simOut
	rep        reply         // of an outOK or outClient call
	partner    *simCall      // the hedge racing this call
	fired      chan struct{} // closed when this stalled call's hedge timer was taken
	done       chan struct{} // closed on return
}

type simTimer struct {
	ch      chan time.Time // unbuffered: a completed send is a timer the policy took
	stopped chan struct{}
}

// simRun is the transport and clock of one simulated coordinator.
type simRun struct {
	cl     *simCluster
	shape  simShape
	script map[simKey]simKind
	coord  *Coordinator
	clock  atomic.Int64 // nanoseconds; lock-free, the breakers read it under their own lock

	mu         sync.Mutex
	idle       *sync.Cond // signalled when busy drops to 0
	busy       int        // exchanges and timer hand-overs under way
	next       []int      // per-backend call index
	log        []*simCall
	flying     map[*simCall]bool
	timers     []*simTimer // pending hedge timers
	stalled    []*simCall  // slow primaries waiting for theirs to fire
	hedgeFires int
	probeFails map[int]int // failed health probes per backend
	req        int
	page       *simPage
	cancelReq  context.CancelFunc
	closed     bool           // every breaker was closed when the request came in
	before     shard.Snapshot // the counters when it came in
	arrived    map[int]bool   // ranges whose rows call reached a backend, this request
	barrier    chan struct{}  // closed once all but the finisher have; nil = not checked
	violations []string
	lagging    bool // some call of the run was abandoned; see check
}

func newSimRun(cl *simCluster, sh simShape, script map[simKey]simKind, tu tuning) *simRun {
	s := &simRun{cl: cl, shape: sh, script: script, flying: map[*simCall]bool{}, next: make([]int, sh.ranges*sh.replicas), probeFails: map[int]int{}}
	s.idle = sync.NewCond(&s.mu)
	s.clock.Store(time.Date(2007, 4, 15, 0, 0, 0, 0, time.UTC).UnixNano())
	ranges := make([][]int, sh.ranges)
	for g := range s.next {
		ranges[g/sh.replicas] = append(ranges[g/sh.replicas], g)
	}
	// The front of a shape is assembled once; every run gets its own policy
	// (breakers, budget, counters, rotation), every request an empty cache.
	cl.mu.Lock()
	front := cl.fronts[sh]
	if front == nil {
		front = &Coordinator{backends: make([]string, len(s.next))}
		front.assemble(ranges, Config{}, sh.config(), tu, s)
		cl.fronts[sh] = front
	}
	cl.mu.Unlock()
	s.coord = front
	s.coord.policy = newPolicy(ranges, sh.config(), tu, s)
	return s
}

// config is the shape's two mechanisms as the coordinator takes them.
func (sh simShape) config() ShardConfig {
	scfg := ShardConfig{AllowPartial: sh.partial}
	if sh.hedge {
		scfg.HedgeAfter = simHedgeAfter
	}
	return scfg
}

// simTuning is the simulated failure policy: no request deadline, admission
// cap or prober, and a jitter-free backoff. The budget is ample so that the
// enumeration is about failures, not about the budget (TestPolicySim/budget).
func simTuning() tuning {
	return tuning{
		shardTimeout:     simShardTimeout,
		maxRetries:       simMaxRetries,
		retryBudget:      simBudget,
		retryRatio:       simRatio,
		breakerThreshold: simThreshold,
		breakerCooldown:  simCooldown,
		backoffBase:      time.Millisecond,
		backoffMax:       4 * time.Millisecond,
	}
}

func (s *simRun) violate(format string, args ...any) {
	s.violations = append(s.violations, fmt.Sprintf(format, args...))
}

func (s *simRun) now() time.Time { return time.Unix(0, s.clock.Load()) }

// after hands out the two timers the policy asks for. A backoff sleep has
// nothing to race: the clock jumps and the timer has fired. A hedge timer
// stays pending until fire decides the primary it guards is slow.
func (s *simRun) after(d time.Duration) (<-chan time.Time, func() bool) {
	if d != simHedgeAfter {
		ch := make(chan time.Time, 1)
		ch <- time.Unix(0, s.clock.Add(int64(d)))
		return ch, func() bool { return false }
	}
	tm := &simTimer{ch: make(chan time.Time), stopped: make(chan struct{})}
	s.mu.Lock()
	s.timers = append(s.timers, tm)
	s.fire()
	s.mu.Unlock()
	return tm.ch, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		close(tm.stopped)
		for i, o := range s.timers {
			if o == tm {
				s.timers = append(s.timers[:i], s.timers[i+1:]...)
				s.fire()
				return true
			}
		}
		return false
	}
}

// fire (s.mu held) fires the pending hedge timers once every one of them
// guards a stalled primary. The policy starts an attempt's timer before its
// primary, so pending timers are never fewer than stalled primaries, and
// they are as many exactly when no attempt is left whose primary is still on
// its way to a fast answer — whose timer must not fire. Each timer is handed
// over on an unbuffered channel: when the sends are done the policy has taken
// the hedge branch of every stalled attempt.
func (s *simRun) fire() {
	if len(s.timers) == 0 || len(s.timers) != len(s.stalled) {
		return
	}
	timers, stalled := s.timers, s.stalled
	s.timers, s.stalled = nil, nil
	now := time.Unix(0, s.clock.Add(int64(simHedgeAfter)))
	s.busy++
	go func() {
		defer s.end(nil)
		for _, tm := range timers {
			select {
			case tm.ch <- now:
				s.mu.Lock()
				s.hedgeFires++
				s.mu.Unlock()
			case <-tm.stopped:
			}
		}
		for _, c := range stalled {
			close(c.fired)
		}
	}()
}

// stall holds a slow primary until its attempt's hedge has been decided and,
// if one was sent, has come back — or the call's context ends.
func (s *simRun) stall(c *simCall) {
	s.mu.Lock()
	s.stalled = append(s.stalled, c)
	s.fire()
	s.mu.Unlock()
	watchdog := time.NewTimer(simWatchdog)
	defer watchdog.Stop()
	select {
	case <-c.fired:
	case <-c.ctx.Done():
		s.unstall(c)
		return
	case <-watchdog.C:
		s.unstall(c)
		s.mu.Lock()
		s.violate("slow call %d to backend %d: its attempt never armed a hedge timer", c.seq, c.g)
		s.mu.Unlock()
		return
	}
	// Whether the policy sent a hedge (a fresh replica, a budget token) is
	// its own business, and not sending one is invisible from here: yield to
	// let the hedge arrive, then stop expecting it. Answering before a late
	// hedge is a schedule like any other.
	for spin := 0; spin < 200 && c.ctx.Err() == nil; spin++ {
		s.mu.Lock()
		hedge := c.partner
		s.mu.Unlock()
		if hedge != nil {
			select {
			case <-hedge.done:
			case <-c.ctx.Done():
			}
			return
		}
		runtime.Gosched()
	}
}

// probe feeds one health-probe verdict on backend g to the policy, as the
// prober does.
func (s *simRun) probe(g int, ok bool) {
	if !ok {
		s.probeFails[g]++
	}
	s.coord.onProbe(g, ok)
}

// unstall drops a stalled call that stops waiting for its hedge timer.
func (s *simRun) unstall(c *simCall) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range s.stalled {
		if o == c {
			s.stalled = append(s.stalled[:i], s.stalled[i+1:]...)
			s.fire()
			return
		}
	}
}

// end (deferred) marks an exchange or a timer hand-over finished.
func (s *simRun) end(c *simCall) {
	s.mu.Lock()
	if s.busy--; s.busy == 0 {
		s.idle.Broadcast()
	}
	if c != nil {
		delete(s.flying, c)
		close(c.done)
	}
	s.mu.Unlock()
}

// exchange answers one backend call from the schedule. A call whose context
// has already ended is never sent (net/http would not send it either): it is
// logged, and takes no slot of the schedule.
func (s *simRun) exchange(ctx context.Context, g int, method, uri string, payload []byte) (rep reply, err error) {
	ri := g / s.shape.replicas
	c := &simCall{g: g, ri: ri, ctx: ctx, finish: bytes.Contains(payload, []byte(`"finish":`)),
		fired: make(chan struct{}), done: make(chan struct{})}
	hedging := s.shape.hedge && s.shape.replicas > 1 && method == "POST" // a proxied GET is never hedged
	s.mu.Lock()
	s.busy++
	defer s.end(c)
	c.req, _ = ctx.Value(simReqKey{}).(int) // a straggler of an earlier request says so
	c.seq, c.idx = len(s.log), -1
	s.log = append(s.log, c)
	if ctx.Err() != nil {
		c.out = outCancelled
		s.mu.Unlock()
		return reply{}, ctx.Err()
	}
	c.idx = s.next[g]
	s.next[g]++
	c.kind = s.script[simKey{g, c.idx}]
	if s.coord.breakers[g].State() == resilience.Open {
		s.violate("call %d reached backend %d through an open breaker", c.seq, g)
	}
	// The two calls of a hedged attempt, and only they, share its context.
	for _, o := range s.log[:c.seq] {
		if hedging && o.ctx == ctx {
			c.hedge, o.partner = true, c
		}
	}
	s.flying[c] = true
	barrier := s.barrier
	if barrier != nil && !c.finish && !s.arrived[ri] {
		if s.arrived[ri] = true; len(s.arrived) == s.shape.ranges-1 {
			close(barrier)
		}
	} else {
		barrier = nil
	}
	s.mu.Unlock()

	// PR 25's bug as a property: no rows call is answered before all of them
	// are out.
	if barrier != nil {
		watchdog := time.NewTimer(simWatchdog)
		select {
		case <-barrier:
		case <-ctx.Done():
		case <-watchdog.C:
			s.mu.Lock()
			s.violate("rows call of range %d was alone at its backend: the fan-out is not concurrent", ri)
			s.mu.Unlock()
		}
		watchdog.Stop()
	}
	slow := c.kind == simSlowOK || c.kind == simTimeout
	if slow && hedging && !c.hedge {
		s.stall(c)
	}
	if c.kind == simCancel {
		s.cancelReq()
	}
	if ctx.Err() != nil {
		c.out = outCancelled
		return reply{}, ctx.Err()
	}
	c.out = outFail
	switch c.kind {
	case simTimeout:
		s.clock.Add(int64(simShardTimeout))
		return reply{}, context.DeadlineExceeded
	case sim5xx:
		return reply{status: 500, body: []byte("injected failure\n"), contentType: "text/plain"}, nil
	case sim4xx:
		c.out = outClient
		c.rep = reply{status: 400, body: []byte(`{"error":"injected client error"}` + "\n"), contentType: "application/json"}
		return c.rep, nil
	}
	// The real answer; a shape is a /shard/search 200's, and the wrong ones
	// are failures.
	rep = s.cl.answer(ri, method, uri, payload)
	switch {
	case rep.status >= 400 && rep.status < 500:
		c.out = outClient
	case rep.status != 200:
	case method != "POST" || c.kind != simShapeA && c.kind != simShapeB:
		c.out = outOK
	case c.kind == simShapeA && c.finish:
		rep.pageRows = ""
	case c.kind == simShapeA:
		rep.body = rep.body[:len(rep.body)/2]
	case c.finish:
		rep.pageRows = "-1"
	default:
		rep.body = append([]byte(`{"took_us":1,`), rep.body[1:]...)
	}
	c.rep = rep
	return rep, nil
}

// serve runs one request of the table through the coordinator's front and an
// empty cache, waits until the transport is idle and checks the request
// against the invariant list.
func (s *simRun) serve(pg *simPage) *httptest.ResponseRecorder {
	s.mu.Lock()
	s.req++
	s.page = pg
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), simReqKey{}, s.req))
	s.cancelReq = cancel
	s.arrived, s.barrier = map[int]bool{}, nil
	s.closed = true
	for _, b := range s.coord.breakers {
		s.closed = s.closed && b.State() == resilience.Closed
	}
	// With a breaker open a range may fail without reaching a backend, and
	// the other rows calls would wait for it in vain.
	if s.closed && s.shape.ranges > 2 && !pg.proxied {
		s.barrier = make(chan struct{})
	}
	s.before = s.coord.metrics.Snapshot()
	s.coord.cache = cache.New[[]byte](1, time.Minute)
	s.mu.Unlock()

	rec := httptest.NewRecorder()
	s.coord.ServeHTTP(rec, httptest.NewRequest("GET", pg.path, nil).WithContext(ctx))

	s.mu.Lock()
	// TestCancelledRequestBurstNoLeak as a property: whatever the request
	// left behind has been told to stop.
	for c := range s.flying {
		if c.ctx.Err() == nil {
			s.violate("call %d to backend %d outlives its request with a live context", c.seq, c.g)
		}
	}
	s.mu.Unlock()
	cancel()
	s.mu.Lock()
	for s.busy > 0 {
		s.idle.Wait()
	}
	s.check(rec)
	s.mu.Unlock()
	return rec
}

// check (s.mu held, transport idle) holds one answered request against the
// log of the calls it made.
func (s *simRun) check(rec *httptest.ResponseRecorder) {
	attempts, threshold := 1+s.coord.tu.maxRetries, s.coord.tu.breakerThreshold
	type callKey struct {
		ri     int
		finish bool
	}
	type callStat struct{ sent, hedges, failed, firstFinal, last int }
	calls := map[callKey]*callStat{}
	var mine []*simCall
	var rowsOK, finishAsked, finishOK uint
	var finished [][]byte
	var refusals []reply
	var cancelled, hedged bool
	clean := true // every call sent and answered at once
	for _, c := range s.log {
		if c.req != s.req {
			continue
		}
		mine = append(mine, c)
		k := callKey{c.ri, c.finish}
		st := calls[k]
		if st == nil {
			st = &callStat{firstFinal: -1}
			calls[k] = st
		}
		if c.finish {
			finishAsked |= 1 << c.ri
		}
		hedged = hedged || c.hedge
		clean = clean && c.out == outOK && !c.hedge
		if c.idx < 0 {
			continue // never sent
		}
		st.sent++
		st.last = c.seq
		if c.hedge {
			st.hedges++
		}
		switch c.out {
		case outOK:
			if c.finish {
				finishOK |= 1 << c.ri
				finished = append(finished, c.rep.body)
			} else {
				rowsOK |= 1 << c.ri
			}
		case outFail:
			st.failed++
		case outClient:
			refusals = append(refusals, c.rep)
		}
		if c.kind == simCancel {
			cancelled = true
		}
		if (c.out == outClient || c.kind == simCancel) && st.firstFinal < 0 {
			st.firstFinal = c.seq
		}
	}
	snap := s.coord.metrics.Snapshot()
	excused := snap.RetriesDenied > 0 // a call may end early for want of a token
	for _, b := range s.coord.breakers {
		excused = excused || b.State() != resilience.Closed
	}
	body := rec.Body.Bytes()
	if rec.Code == 503 {
		if want := retryAfterSecs(max(s.coord.tu.shardTimeout, s.coord.tu.breakerCooldown)); rec.Header().Get("Retry-After") != want {
			s.violate("503 with Retry-After %q, want %q: the longer of the shard timeout and the breaker cool-down", rec.Header().Get("Retry-After"), want)
		}
	}
	if cancelled && len(body) != 0 && rec.Code == 200 {
		// Nobody reads the answer — another range's error may already have
		// decided it — but nothing is served to a client that left.
		s.violate("abandoned request was answered: %s", body)
	}
	if rec.Code >= 400 && rec.Code < 500 && !cancelled {
		relayed := false
		for _, r := range refusals {
			relayed = relayed || r.status == rec.Code && bytes.Equal(r.body, body)
		}
		if !relayed {
			s.violate("%d is no backend's client error, byte for byte: %s", rec.Code, body)
		}
	}
	if rec.Code != 200 && !cancelled && s.coord.cache.Stats().Entries != 0 {
		s.violate("a %d was cached", rec.Code)
	}
	// Retries and hedges over the run are what the budget could have paid.
	if spent, cap := float64(snap.Retries+snap.Hedges), s.coord.tu.retryBudget+float64(rangeRequests(snap))*s.coord.tu.retryRatio; spent > cap {
		s.violate("%v retries and hedges, the budget covers %v", spent, cap)
	}
	// A backend's counters and breaker move only with what it was seen to
	// do, and its probes said: a cancelled call is a request and nothing
	// else. Once a range call was abandoned — a hedge's loser, a client that
	// left — its record may still be on its way: missing, never surplus. A
	// proxied GET records each call before it returns.
	s.lagging = s.lagging || hedged || cancelled && !s.page.proxied
	for g, rs := range snap.Replicas {
		var sent, failed uint64
		for _, c := range s.log {
			if c.g == g {
				sent++
				if c.out == outFail {
					failed++
				}
			}
		}
		if rs.Requests > sent || rs.Errors+rs.Timeouts > failed || !s.lagging && (rs.Requests != sent || rs.Errors+rs.Timeouts != failed) {
			s.violate("backend %d: counters %+v after %d calls, %d of them failures", g, rs, sent, failed)
		}
		if s.coord.breakers[g].State() != resilience.Closed && int(failed)+s.probeFails[g] < threshold {
			s.violate("backend %d: breaker %v after %d failures and %d failed probes (threshold %d)", g, s.coord.breakers[g].State(), failed, s.probeFails[g], threshold)
		}
	}

	if s.page.proxied {
		s.checkProxy(rec, mine, cancelled, snap)
		return
	}

	// A range's counters read a range call's outcome by the replicas' rule:
	// a client error is an answer, and a client that left says nothing
	// about the range. So a page none of whose calls failed — every range
	// rejected it, the client abandoned it, or every range answered — moves
	// no range's errors or timeouts.
	if s.closed && !slices.ContainsFunc(mine, func(c *simCall) bool { return c.out == outFail }) {
		for ri, rs := range snap.Shards {
			if was := s.before.Shards[ri]; rs.Errors != was.Errors || rs.Timeouts != was.Timeouts {
				s.violate("range %d: counters %+v, %+v before a page none of whose calls failed", ri, rs, was)
			}
		}
	}

	// Attempts per range call: 1 + maxRetries, one more per hedge; a client
	// error or the client's cancellation ends the call at once.
	for k, st := range calls {
		if st.sent-st.hedges > attempts {
			s.violate("range %d (finish %v): %d attempts, at most %d allowed", k.ri, k.finish, st.sent-st.hedges, attempts)
		}
		if st.firstFinal >= 0 && st.last > st.firstFinal {
			for _, c := range s.log[st.firstFinal+1:] {
				if c.req == s.req && c.ri == k.ri && c.finish == k.finish && c.idx >= 0 && !c.hedge {
					s.violate("range %d (finish %v): call %d sent after call %d had ended the range call", k.ri, k.finish, c.seq, st.firstFinal)
				}
			}
		}
	}
	hedges := 0
	for _, st := range calls {
		hedges += st.hedges
	}
	if hedges > s.hedgeFires {
		s.violate("%d hedges sent on %d fired timers", hedges, s.hedgeFires)
	}
	// A primary slower than HedgeAfter that opened its range call, so its
	// sibling is fresh, is raced by a hedge while the budget has tokens:
	// each such attempt counts one (a hedge sent late may not be in the
	// log yet; the count is taken before the attempt returns).
	if s.shape.hedge && s.shape.replicas > 1 && s.closed && !cancelled && s.coord.tu.retryBudget >= simBudget {
		opened, owed := map[callKey]bool{}, uint64(0)
		for _, c := range mine {
			if k := (callKey{c.ri, c.finish}); c.idx >= 0 && !c.hedge && !opened[k] {
				opened[k] = true
				select {
				case <-c.fired:
					if s.coord.breakers[c.g^1].State() == resilience.Closed {
						owed++
					}
				default:
				}
			}
		}
		if sent := snap.Hedges - s.before.Hedges; sent < owed {
			s.violate("%d slow primaries with a fresh sibling, %d hedged", owed, sent)
		}
	}

	// The finisher rotates, and past the first in rotation it is a range
	// that answered. A healthy page costs one exchange per range, and
	// only the first in rotation's carries "finish".
	all := uint(1)<<s.shape.ranges - 1
	first := (s.req - 1) % s.shape.ranges
	if late := finishAsked &^ rowsOK &^ (1 << first); late != 0 {
		s.violate("range(s) %b asked to finish the page after their rows call had failed", late)
	}
	if s.closed && clean && (len(mine) != s.shape.ranges || finishAsked != 1<<first || rowsOK != all&^(1<<first)) {
		s.violate("healthy page: %d exchanges over %d ranges, finish asked of ranges %b, rows of %b; want one each, range %d finishing",
			len(mine), s.shape.ranges, finishAsked, rowsOK, first)
	}

	// The ranges a served page is made of: the one that finished it and
	// those whose rows it was handed — answered, and not asked to finish and
	// failed since.
	set := finishOK | rowsOK&^finishAsked
	switch {
	case cancelled:
	case rec.Code == 200:
		switch {
		case finishOK == 0 || finishOK&(finishOK-1) != 0:
			s.violate("200 with finishing answers from ranges %b, want exactly one", finishOK)
		case !bytes.Equal(body, s.cl.body(s.page, set)):
			s.violate("200 for ranges %b is not their page\ngot:  %s\nwant: %s", set, body, s.cl.body(s.page, set))
		case set != all && !s.shape.partial:
			s.violate("degraded page (ranges %b) without AllowPartial", set)
		}
		relayed := false
		for _, b := range finished {
			relayed = relayed || bytes.Equal(b, body)
		}
		if !relayed {
			s.violate("200 body is no finishing answer, byte for byte")
		}
		// Only the exact page may be cached.
		if want := map[bool]int{true: 1, false: 0}[set == all]; s.coord.cache.Stats().Entries != want {
			s.violate("page of ranges %b: cache holds %d entries, want %d", set, s.coord.cache.Stats().Entries, want)
		}
	case rec.Code >= 400 && rec.Code < 500:
	case rec.Code == 503:
		if finishOK != 0 && !hedged {
			s.violate("503 although range(s) %b finished the page", finishOK)
		}
		// Someone must have run out of attempts.
		exhausted := excused
		for _, st := range calls {
			exhausted = exhausted || st.sent-st.hedges == attempts && st.failed >= attempts
		}
		if !exhausted {
			s.violate("503 before any range call had used its %d attempts", attempts)
		}
	default:
		s.violate("answered %d: %s", rec.Code, body)
	}
	// Without a hedged pair nothing races, and the outcome is the log's.
	if !hedged && !cancelled {
		switch {
		case len(refusals) > 0 && (rec.Code < 400 || rec.Code >= 500):
			s.violate("a backend's client error was answered with %d", rec.Code)
		case len(refusals) == 0 && finishOK != 0 && rec.Code != 200:
			s.violate("range %b finished the page, answered %d", finishOK, rec.Code)
		case len(refusals) == 0 && set != all && rec.Code == 200 && !excused:
			for ri := 0; ri < s.shape.ranges; ri++ {
				st := calls[callKey{ri, finishAsked&(1<<ri) != 0}]
				if set&(1<<ri) == 0 && (st == nil || st.failed < attempts) {
					s.violate("range %d left out of the page before its %d attempts", ri, attempts)
				}
			}
		}
	}
}

// checkProxy holds a proxied GET against its calls: the backends are asked
// in turn, each at most once, until one answers — a 200 or a client error,
// relayed verbatim (/stats decorated with the coordinator's counters) — or
// the client leaves; a 503 only once every backend its breaker admits has
// failed; and no range call, retry, hedge or budget token is spent on it.
func (s *simRun) checkProxy(rec *httptest.ResponseRecorder, mine []*simCall, cancelled bool, snap shard.Snapshot) {
	asked := map[int]bool{}
	var answer *simCall
	for _, c := range mine {
		if asked[c.g] || answer != nil || cancelled && c.kind == simCancel && c != mine[len(mine)-1] {
			s.violate("proxied %s: call %d to backend %d, asked twice or past an answer or the client leaving", s.page.path, c.seq, c.g)
		}
		asked[c.g] = true
		if c.out == outOK || c.out == outClient {
			answer = c
		}
	}
	switch {
	case cancelled:
	case answer == nil && rec.Code == 503:
		for g, b := range s.coord.breakers {
			if !asked[g] && b.State() == resilience.Closed {
				s.violate("proxied %s: 503 without asking backend %d, whose breaker is closed", s.page.path, g)
			}
		}
	case answer == nil || rec.Code != answer.rep.status:
		s.violate("proxied %s answered %d: %s", s.page.path, rec.Code, rec.Body)
	case s.page.path == "/stats" && rec.Code == 200:
		var got, want StatsResponse
		if json.Unmarshal(rec.Body.Bytes(), &got) != nil || json.Unmarshal(answer.rep.body, &want) != nil || got.Sharding == nil {
			s.violate("/stats answered %s for %s", rec.Body, answer.rep.body)
			break
		}
		want.CacheHits, want.CacheMisses, want.CacheCoalesced, want.CacheEntries, want.Sharding = got.CacheHits, got.CacheMisses, got.CacheCoalesced, got.CacheEntries, got.Sharding
		if !reflect.DeepEqual(got, want) {
			s.violate("/stats is not backend %d's: %+v, want %+v", answer.g, got, want)
		}
	case !bytes.Equal(rec.Body.Bytes(), answer.rep.body) || rec.Header().Get("Content-Type") != answer.rep.contentType:
		s.violate("proxied %s: not backend %d's answer, byte for byte: %s", s.page.path, answer.g, rec.Body)
	}
	if rangeRequests(snap) != rangeRequests(s.before) || snap.Retries != s.before.Retries || snap.RetriesDenied != s.before.RetriesDenied || snap.Hedges != s.before.Hedges {
		s.violate("proxied %s moved the range calls' counters: %+v, before %+v", s.page.path, snap, s.before)
	}
}

// rangeRequests sums the per-range request counters: the range calls the
// coordinator made for its pages.
func rangeRequests(snap shard.Snapshot) uint64 {
	var n uint64
	for _, s := range snap.Shards {
		n += s.Requests
	}
	return n
}

// simServe serves the named pages, in order, on one simulated coordinator of
// shape sh over script, and fails the test on any violation of the checker.
func simServe(t *testing.T, sh simShape, tu tuning, script map[simKey]simKind, pages ...string) (*simRun, []*httptest.ResponseRecorder) {
	t.Helper()
	cl := simClusterFor(t, sh.ranges)
	s := newSimRun(cl, sh, script, tu)
	var recs []*httptest.ResponseRecorder
	for _, name := range pages {
		recs = append(recs, s.serve(cl.page(t, name)))
	}
	if len(s.violations) > 0 {
		t.Fatalf("%v, schedule %v:\n  %s", sh, fmtScript(script), strings.Join(s.violations, "\n  "))
	}
	return s, recs
}

// streams lists the outcome sequences of one backend the policy can tell
// apart to the given depth: a sequence ends with its first kind that is not
// retriable (what follows it is the default, ok).
func streams(depth int) [][]simKind {
	if out, ok := streamsMemo[depth]; ok {
		return out
	}
	out := [][]simKind{nil}
	if depth > 0 {
		out = nil
		for k := simKind(0); k < simKinds; k++ {
			if !k.retriable() || depth == 1 {
				out = append(out, []simKind{k})
				continue
			}
			for _, rest := range streams(depth - 1) {
				out = append(out, append([]simKind{k}, rest...))
			}
		}
	}
	streamsMemo[depth] = out
	return out
}

var streamsMemo = map[int][][]simKind{}

// TestPolicySim enumerates failure schedules instead of hand-picking them.
// Every backend outside the schedule is healthy. One faulty range — the
// finisher (range 0 of a fresh coordinator) or a rows range — to the depth of
// a whole range call, 1 + maxRetries calls: on its one replica, or split 2 + 1
// and 1 + 2 over its two (the order an unhedged call visits them; a hedged one
// reaches deeper into the defaults). Two faulty ranges to depth 2 each. All
// of it with and without AllowPartial and, on two replicas, hedging. Every
// schedule serves the offset page, and then, on a fresh coordinator, the
// table's next request in turn: another /search page, or a proxied GET when
// the schedule reaches the backend a GET asks first (backend 0, call 0) —
// else the GET is answered before any fault and checks nothing of it. -short
// keeps the one-backend schedules and every 17th of the rest.
func TestPolicySim(t *testing.T) {
	seen := map[string]bool{}
	failures, pages, gets := 0, 0, 0
	// check serves pg on a fresh coordinator of shape sh over script.
	check := func(cl *simCluster, sh simShape, script map[simKey]simKind, pg *simPage) {
		s := newSimRun(cl, sh, script, simTuning())
		if s.serve(pg); len(s.violations) > 0 {
			t.Errorf("%v, %s, schedule %v:\n  %s", sh, pg.path, fmtScript(script), strings.Join(s.violations, "\n  "))
			if failures++; failures == 5 {
				t.Fatal("giving up after 5 failing schedules")
			}
		}
	}
	// run simulates every combination of streams(depths[i]) on backends[i].
	run := func(sh simShape, backends, depths []int) {
		cl := simClusterFor(t, sh.ranges)
		pick := make([]int, len(backends))
		for n := 0; ; n++ {
			script := map[simKey]simKind{}
			for bi, g := range backends {
				for i, k := range streams(depths[bi])[pick[bi]] {
					script[simKey{g, i}] = k
				}
			}
			if id := sh.String() + fmtScript(script); !seen[id] && (!testing.Short() || len(backends) == 1 || n%17 == 0) {
				seen[id] = true
				check(cl, sh, script, cl.pages[0])
				switch pg := cl.pages[n%len(cl.pages)]; {
				case pg == cl.pages[0]:
				case !pg.proxied:
					check(cl, sh, script, pg)
					pages++
				case script[simKey{0, 0}] != simOK:
					check(cl, sh, script, pg)
					gets++
				}
			}
			bi := 0
			for ; bi < len(pick); bi++ {
				if pick[bi]++; pick[bi] < len(streams(depths[bi])) {
					break
				}
				pick[bi] = 0
			}
			if bi == len(pick) {
				return
			}
		}
	}
	for _, partial := range []bool{false, true} {
		// One faulty range: {ranges, the faulty one}.
		for _, f := range [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1}} {
			if f[0] == 1 && partial {
				continue // one range has nothing to degrade to
			}
			run(simShape{f[0], 1, partial, false}, []int{f[1]}, []int{1 + simMaxRetries})
			for _, hedge := range []bool{false, true} {
				if f[0] == 2 {
					continue // 1 and 3 ranges bracket it
				}
				sh := simShape{f[0], 2, partial, hedge}
				run(sh, []int{2 * f[1], 2*f[1] + 1}, []int{2, 1})
				run(sh, []int{2 * f[1], 2*f[1] + 1}, []int{1, 2})
			}
		}
		// Two faulty ranges: the finisher and a rows range, of 2 and of 3.
		run(simShape{2, 1, partial, false}, []int{0, 1}, []int{2, 2})
		run(simShape{3, 1, partial, false}, []int{0, 1}, []int{2, 2})
		if partial {
			run(simShape{3, 2, partial, true}, []int{0, 2}, []int{2, 2})
		}
	}
	t.Logf("%d distinct schedules on the offset page; %d of them also on another /search page, %d on a proxied GET", len(seen), pages, gets)
	if !testing.Short() && len(seen) < 10000 {
		t.Fatalf("full mode ran %d schedules, want at least 10000", len(seen))
	}
}

func fmtScript(script map[simKey]simKind) string {
	var parts []string
	for key, k := range script {
		if k != simOK {
			parts = append(parts, fmt.Sprintf("backend %d call %d: %v", key.g, key.i, k))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// TestPolicySimBreakerCooldown: a replica that keeps failing trips its
// breaker and is then left alone — pages stay exact off its sibling — until
// the cool-down has passed on the injected clock; the half-open probe that
// finds it healed closes the breaker. (That no call ever reaches a backend
// through an open breaker is checked on every exchange of every run.)
func TestPolicySimBreakerCooldown(t *testing.T) {
	sh := simShape{ranges: 1, replicas: 2}
	script := map[simKey]simKind{}
	for i := 0; i < simThreshold; i++ {
		script[simKey{0, i}] = sim5xx
	}
	s := newSimRun(simClusterFor(t, 1), sh, script, simTuning())
	pg := s.cl.page(t, "offset")
	page := func(stage string) {
		t.Helper()
		if rec := s.serve(pg); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), pg.golden) {
			t.Fatalf("%s: %d %s", stage, rec.Code, rec.Body)
		}
	}
	for s.coord.breakers[0].State() != resilience.Open {
		if s.req > 4*simThreshold {
			t.Fatalf("breaker still %v after %d calls to the failing replica", s.coord.breakers[0].State(), s.next[0])
		}
		page("tripping")
	}
	tripped := s.next[0]
	for k := 0; k < 6; k++ {
		page("open")
	}
	if s.next[0] != tripped {
		t.Fatalf("open breaker: its backend was sent %d more calls", s.next[0]-tripped)
	}
	s.clock.Add(int64(simCooldown))
	for k := 0; k < 2; k++ {
		page("cooled down")
	}
	if s.next[0] == tripped || s.coord.breakers[0].State() != resilience.Closed {
		t.Fatalf("past the cool-down: %d probes of the healed replica, breaker %v", s.next[0]-tripped, s.coord.breakers[0].State())
	}
	if len(s.violations) > 0 {
		t.Fatal(strings.Join(s.violations, "\n"))
	}
}

// TestPolicySimRetryBudget: against a range that is down, with maxRetries far
// above what the budget covers, n range calls make at most n + capacity +
// n·ratio backend calls — and do make more than n, or the bound is vacuous.
func TestPolicySimRetryBudget(t *testing.T) {
	const capacity, ratio, requests = 3.0, 0.5, 20
	sh := simShape{ranges: 1, replicas: 1}
	tu := simTuning()
	tu.maxRetries, tu.retryBudget, tu.retryRatio = 10, capacity, ratio
	tu.breakerThreshold = 1000 // the breaker must not mask the budget
	script := map[simKey]simKind{}
	for i := 0; i < requests*11; i++ {
		script[simKey{0, i}] = sim5xx
	}
	s := newSimRun(simClusterFor(t, 1), sh, script, tu)
	for k := 0; k < requests; k++ {
		if rec := s.serve(s.cl.page(t, "offset")); rec.Code != 503 {
			t.Fatalf("request %d against a dead range = %d: %s", k, rec.Code, rec.Body)
		}
	}
	bound := int(requests + capacity + requests*ratio)
	snap := s.coord.metrics.Snapshot()
	if s.next[0] > bound || s.next[0] <= requests || snap.RetriesDenied == 0 {
		t.Fatalf("%d range calls made %d backend calls (bound %d), %d retries denied", requests, s.next[0], bound, snap.RetriesDenied)
	}
	if len(s.violations) > 0 {
		t.Fatal(strings.Join(s.violations, "\n"))
	}
}

// FuzzCoordinatorSchedule is the enumeration's other half: arbitrary bytes
// become a cluster shape, an outcome for every call of every backend — all
// ranges at once, deeper than the enumeration goes — up to four requests of
// the table on one coordinator and clock jumps between them, checked by the
// same checker.
//
//	byte 0: ranges 1 + b%3, then bits 2–5: two replicas, AllowPartial, hedging,
//	        a retry budget of one token (ratio 0.1)
//	byte 1: requests 1 + b%4, bit 2: the breaker cool-down passes between them,
//	        bits 3–7: the first request's row of the table (the rest follow it)
//	byte 2+j: the outcome (b%8, a simKind) of call j/backends of backend j%backends
func FuzzCoordinatorSchedule(f *testing.F) {
	for n := 1; n <= 3; n++ {
		simClusterFor(f, n)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+96 {
			return
		}
		sh := simShape{ranges: 1 + int(data[0]%3), replicas: 1 + int(data[0]>>2&1), partial: data[0]>>3&1 == 1}
		sh.hedge = sh.replicas > 1 && data[0]>>4&1 == 1
		tu := simTuning()
		if data[0]>>5&1 == 1 {
			tu.retryBudget, tu.retryRatio = 1, 0.1
		}
		script := map[simKey]simKind{}
		for j, b := range data[2:] {
			script[simKey{j % (sh.ranges * sh.replicas), j / (sh.ranges * sh.replicas)}] = simKind(b % byte(simKinds))
		}
		s := newSimRun(simClusters[sh.ranges], sh, script, tu)
		for k := 0; k <= int(data[1]%4); k++ {
			s.serve(s.cl.pages[(int(data[1]>>3)+k)%len(s.cl.pages)])
			if data[1]>>2&1 == 1 {
				s.clock.Add(int64(simCooldown))
			}
		}
		if len(s.violations) > 0 {
			t.Fatalf("%v, schedule %v:\n  %s", sh, fmtScript(script), strings.Join(s.violations, "\n  "))
		}
	})
}
