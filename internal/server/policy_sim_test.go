// A deterministic simulator for the coordinator's failure policy (policy.go).
// The coordinator runs as built, front and cache included, over a transport
// that answers from a schedule and a clock only the test moves: no listener,
// no wall-clock wait. A schedule is keyed by (backend, per-backend call
// index) — internal/faultproxy's keying — so it fixes every backend answer
// whatever the goroutine interleaving; the scheduler is left only the races
// the policy itself leaves open (which answer of a hedged pair is taken
// first, who gets the last shared retry token), and no assertion below
// depends on them. The checker states DESIGN.md's "Failure policy" and
// "Replicated serving" as properties of the call log.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctxsearch/internal/cache"
	"ctxsearch/internal/par"
	"ctxsearch/internal/resilience"
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
	simCooldown     = time.Second
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
// payloads repeat across schedules), and the single server's answers the
// checker compares with.
type simCluster struct {
	n       int
	shards  []par.Shard
	servers []*Server
	query   string
	path    string
	golden  []byte
	full    []SearchResult // the single server's whole ranking

	mu         sync.Mutex
	memo       map[string]reply
	restricted map[uint][]byte
	fronts     map[simShape]*Coordinator
}

const simOffset, simLimit = 1, 3

var simClusters = map[int]*simCluster{}

func simClusterFor(t testing.TB, n int) *simCluster {
	t.Helper()
	if cl := simClusters[n]; cl != nil {
		return cl
	}
	sys, cs, m, query := testState(t)
	cl := &simCluster{n: n, shards: par.Shards(sys.Corpus.Len(), n), query: query,
		memo: map[string]reply{}, restricted: map[uint][]byte{}, fronts: map[simShape]*Coordinator{}}
	g := sliceGroup(t, sys, cs, m, n)
	off := Config{QueryTimeout: -1, MaxInflight: -1, CacheEntries: -1}
	for ri := 0; ri < n; ri++ {
		srv := NewPending(off)
		srv.SetReadyMapped(sys, cs, m, g.Engine(ri), nil)
		cl.servers = append(cl.servers, srv)
	}
	ref := NewPending(off).install(sys, cs, m)
	cl.path = fmt.Sprintf("/search?q=%s&limit=%d&offset=%d", urlQuery(query), simLimit, simOffset)
	cl.golden = get(t, ref, cl.path).Body.Bytes()
	var whole SearchResponse
	if err := json.Unmarshal(get(t, ref, "/search?q="+urlQuery(query)+"&limit=1000").Body.Bytes(), &whole); err != nil {
		t.Fatal(err)
	}
	cl.full = whole.Results
	for ri := 0; n > 1 && ri < n; ri++ {
		if bytes.Equal(bytes.Replace(cl.page((1<<n-1)&^(1<<ri)), []byte(`,"partial":true`), nil, 1), cl.golden) {
			t.Fatalf("fixture: range %d of %d holds no row of the page, losing it would prove nothing", ri, n)
		}
	}
	simClusters[n] = cl
	return cl
}

// page builds, without the cluster, the body owed when exactly the ranges in
// set answered: the golden body for all of them, else the single server's
// whole ranking restricted to their papers, cut to the window and flagged.
func (cl *simCluster) page(set uint) []byte {
	if set == 1<<cl.n-1 {
		return cl.golden
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if body, ok := cl.restricted[set]; ok {
		return body
	}
	want := SearchResponse{Query: cl.query, Results: []SearchResult{}, Partial: true}
	skip := simOffset
	for _, r := range cl.full {
		ri := 0
		for r.PaperID >= cl.shards[ri].Hi {
			ri++
		}
		switch {
		case set&(1<<ri) == 0:
		case skip > 0:
			skip--
		case len(want.Results) < simLimit:
			want.Results = append(want.Results, r)
		}
	}
	body, _ := json.Marshal(want)
	cl.restricted[set] = body
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
	body       []byte        // of an outOK finishing call
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
	req        int
	cancelReq  context.CancelFunc
	arrived    map[int]bool  // ranges whose rows call reached a backend, this request
	barrier    chan struct{} // closed once all but the finisher have; nil = not checked
	violations []string
	lagging    bool // some call of the run was abandoned; see check
}

func newSimRun(cl *simCluster, sh simShape, script map[simKey]simKind, scfg ShardConfig) *simRun {
	s := &simRun{cl: cl, shape: sh, script: script, flying: map[*simCall]bool{}, next: make([]int, sh.ranges*sh.replicas)}
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
		front = &Coordinator{cfg: Config{QueryTimeout: -1, MaxInflight: -1}, backends: make([]string, len(s.next))}
		front.assemble(ranges, scfg, s)
		cl.fronts[sh] = front
	}
	cl.mu.Unlock()
	s.coord = front
	s.coord.policy = newPolicy(ranges, scfg, s)
	return s
}

// simConfig is the policy tuning of a shape; the budget is ample so that the
// enumeration is about failures, not about the budget (TestPolicySim/budget).
func simConfig(sh simShape) ShardConfig {
	scfg := ShardConfig{
		ShardTimeout:     simShardTimeout,
		AllowPartial:     sh.partial,
		MaxRetries:       simMaxRetries,
		RetryBudget:      simBudget,
		RetryRatio:       simRatio,
		BreakerThreshold: simThreshold,
		BreakerCooldown:  simCooldown,
		ProbeInterval:    -1,
		Backoff:          resilience.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: -1},
	}
	if sh.hedge {
		scfg.HedgeAfter = simHedgeAfter
	}
	return scfg
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
	select {
	case <-c.fired:
	case <-c.ctx.Done():
		s.mu.Lock()
		for i, o := range s.stalled {
			if o == c {
				s.stalled = append(s.stalled[:i], s.stalled[i+1:]...)
				s.fire()
				break
			}
		}
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
	hedging := s.shape.hedge && s.shape.replicas > 1
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
		return reply{status: 400, body: []byte(`{"error":"injected client error"}` + "\n"), contentType: "application/json"}, nil
	}
	rep = s.cl.answer(ri, method, uri, payload)
	switch {
	case c.kind == simShapeA && c.finish:
		rep.pageRows = ""
	case c.kind == simShapeA:
		rep.body = rep.body[:len(rep.body)/2]
	case c.kind == simShapeB && c.finish:
		rep.pageRows = "-1"
	case c.kind == simShapeB:
		rep.body = append([]byte(`{"took_us":1,`), rep.body[1:]...)
	case rep.status == 200:
		c.out, c.body = outOK, rep.body
	}
	return rep, nil
}

// serve runs one /search through the coordinator's front and an empty cache,
// waits until the transport is idle and checks the request against the
// invariant list.
func (s *simRun) serve() *httptest.ResponseRecorder {
	s.mu.Lock()
	s.req++
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), simReqKey{}, s.req))
	s.cancelReq = cancel
	s.arrived, s.barrier = map[int]bool{}, nil
	closed := true
	for _, b := range s.coord.breakers {
		closed = closed && b.State() == resilience.Closed
	}
	// With a breaker open a range may fail without reaching a backend, and
	// the other rows calls would wait for it in vain.
	if closed && s.shape.ranges > 2 {
		s.barrier = make(chan struct{})
	}
	s.coord.cache = cache.New[[]byte](1, time.Minute)
	s.mu.Unlock()

	rec := httptest.NewRecorder()
	s.coord.ServeHTTP(rec, httptest.NewRequest("GET", s.cl.path, nil).WithContext(ctx))

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
	attempts, threshold := 1+orDefault(s.coord.scfg.MaxRetries, DefaultMaxRetries), s.coord.scfg.BreakerThreshold
	type callKey struct {
		ri     int
		finish bool
	}
	type callStat struct{ sent, hedges, failed, firstFinal, last int }
	calls := map[callKey]*callStat{}
	var rowsOK, finishAsked, finishOK uint
	var finished [][]byte
	var clientErr, cancelled, hedged bool
	for _, c := range s.log {
		if c.req != s.req {
			continue
		}
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
				finished = append(finished, c.body)
			} else {
				rowsOK |= 1 << c.ri
			}
		case outFail:
			st.failed++
		case outClient:
			clientErr = true
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

	// Attempts per range call: 1 + MaxRetries, one more per hedge; a client
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

	// Past the first in rotation, the finisher is a range that answered.
	first := (s.req - 1) % s.shape.ranges
	if late := finishAsked &^ rowsOK &^ (1 << first); late != 0 {
		s.violate("range(s) %b asked to finish the page after their rows call had failed", late)
	}

	// The ranges a served page is made of: the one that finished it and
	// those whose rows it was handed — answered, and not asked to finish and
	// failed since.
	all := uint(1)<<s.shape.ranges - 1
	set := finishOK | rowsOK&^finishAsked
	body := rec.Body.Bytes()
	switch {
	case cancelled:
		// Nobody reads the answer — another range's error may already have
		// decided it — but no page is finished for a client that left.
		if len(body) != 0 && rec.Code == 200 {
			s.violate("abandoned request was served a page: %s", body)
		}
	case rec.Code == 200:
		switch {
		case finishOK == 0 || finishOK&(finishOK-1) != 0:
			s.violate("200 with finishing answers from ranges %b, want exactly one", finishOK)
		case !bytes.Equal(body, s.cl.page(set)):
			s.violate("200 for ranges %b is not their page\ngot:  %s\nwant: %s", set, body, s.cl.page(set))
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
		if !clientErr || !strings.Contains(string(body), "injected client error") {
			s.violate("%d without a backend's client error to relay: %s", rec.Code, body)
		}
	case rec.Code == 503:
		if finishOK != 0 && !hedged {
			s.violate("503 although range(s) %b finished the page", finishOK)
		}
		if rec.Header().Get("Retry-After") == "" {
			s.violate("503 without Retry-After")
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
	if rec.Code != 200 && !cancelled && s.coord.cache.Stats().Entries != 0 {
		s.violate("a %d was cached", rec.Code)
	}
	// Without a hedged pair nothing races, and the outcome is the log's.
	if !hedged && !cancelled {
		switch {
		case clientErr && (rec.Code < 400 || rec.Code >= 500):
			s.violate("a backend's client error was answered with %d", rec.Code)
		case !clientErr && finishOK != 0 && rec.Code != 200:
			s.violate("range %b finished the page, answered %d", finishOK, rec.Code)
		case !clientErr && set != all && rec.Code == 200 && !excused:
			for ri := 0; ri < s.shape.ranges; ri++ {
				st := calls[callKey{ri, finishAsked&(1<<ri) != 0}]
				if set&(1<<ri) == 0 && (st == nil || st.failed < attempts) {
					s.violate("range %d left out of the page before its %d attempts", ri, attempts)
				}
			}
		}
	}

	// Retries and hedges over the run are what the budget could have paid.
	var rangeCalls uint64
	for _, sh := range snap.Shards {
		rangeCalls += sh.Requests
	}
	if spent, cap := float64(snap.Retries+snap.Hedges), s.coord.scfg.RetryBudget+float64(rangeCalls)*s.coord.scfg.RetryRatio; spent > cap {
		s.violate("%v retries and hedges, the budget covers %v", spent, cap)
	}
	// A backend's counters and breaker move only with what it was seen to
	// do: a cancelled call is a request and nothing else. Once a call was
	// abandoned — a hedge's loser, a client that left — its record may still
	// be on its way: missing, never surplus.
	s.lagging = s.lagging || hedged || cancelled
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
		if s.coord.breakers[g].State() != resilience.Closed && int(failed) < threshold {
			s.violate("backend %d: breaker %v after %d failures (threshold %d)", g, s.coord.breakers[g].State(), failed, threshold)
		}
	}
}

// simulate runs one schedule on a fresh coordinator and reports what broke.
func simulate(cl *simCluster, sh simShape, script map[simKey]simKind) []string {
	s := newSimRun(cl, sh, script, simConfig(sh))
	s.serve()
	return s.violations
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
// a whole range call, 1 + MaxRetries calls: on its one replica, or split 2 + 1
// and 1 + 2 over its two (the order an unhedged call visits them; a hedged one
// reaches deeper into the defaults). Two faulty ranges to depth 2 each. All
// of it with and without AllowPartial and, on two replicas, hedging. -short
// keeps the one-backend schedules and every 17th of the rest.
func TestPolicySim(t *testing.T) {
	seen := map[string]bool{}
	failures := 0
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
				if v := simulate(cl, sh, script); len(v) > 0 {
					t.Errorf("%v, schedule %v:\n  %s", sh, fmtScript(script), strings.Join(v, "\n  "))
					if failures++; failures == 5 {
						t.Fatal("giving up after 5 failing schedules")
					}
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
	t.Logf("%d distinct schedules", len(seen))
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
	s := newSimRun(simClusterFor(t, 1), sh, script, simConfig(sh))
	page := func(stage string) {
		t.Helper()
		if rec := s.serve(); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), s.cl.golden) {
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

// TestPolicySimRetryBudget: against a range that is down, with MaxRetries far
// above what the budget covers, n range calls make at most n + capacity +
// n·ratio backend calls — and do make more than n, or the bound is vacuous.
func TestPolicySimRetryBudget(t *testing.T) {
	const capacity, ratio, requests = 3.0, 0.5, 20
	sh := simShape{ranges: 1, replicas: 1}
	scfg := simConfig(sh)
	scfg.MaxRetries, scfg.RetryBudget, scfg.RetryRatio = 10, capacity, ratio
	scfg.BreakerThreshold = 1000 // the breaker must not mask the budget
	script := map[simKey]simKind{}
	for i := 0; i < requests*11; i++ {
		script[simKey{0, i}] = sim5xx
	}
	s := newSimRun(simClusterFor(t, 1), sh, script, scfg)
	for k := 0; k < requests; k++ {
		if rec := s.serve(); rec.Code != 503 {
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
// ranges at once, deeper than the enumeration goes — up to four requests on
// one coordinator and clock jumps between them, checked by the same checker.
//
//	byte 0: ranges 1 + b%3, then bits 2–5: two replicas, AllowPartial, hedging,
//	        a retry budget of one token (ratio 0.1)
//	byte 1: requests 1 + b%4, bit 2: the breaker cool-down passes between them
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
		scfg := simConfig(sh)
		if data[0]>>5&1 == 1 {
			scfg.RetryBudget, scfg.RetryRatio = 1, 0.1
		}
		script := map[simKey]simKind{}
		for j, b := range data[2:] {
			script[simKey{j % (sh.ranges * sh.replicas), j / (sh.ranges * sh.replicas)}] = simKind(b % byte(simKinds))
		}
		s := newSimRun(simClusters[sh.ranges], sh, script, scfg)
		for k := 0; k <= int(data[1]%4); k++ {
			s.serve()
			if data[1]>>2&1 == 1 {
				s.clock.Add(int64(simCooldown))
			}
		}
		if len(s.violations) > 0 {
			t.Fatalf("%v, schedule %v:\n  %s", sh, fmtScript(script), strings.Join(s.violations, "\n  "))
		}
	})
}
