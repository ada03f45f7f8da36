// A deterministic simulator for the coordinator's failure policy (policy.go).
// The coordinator runs as built, front and cache included, over a transport
// that answers from a schedule and a clock only the test moves: no listener,
// no wall-clock wait. A schedule is keyed by (backend, per-backend call
// index), so it fixes every backend answer whatever the goroutine
// interleaving; the scheduler is left only the race the policy itself leaves
// open (who gets the last shared retry token), and no assertion below
// depends on it. A run
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
	return [...]string{"ok", "timeout", "5xx", "4xx", "shape-a", "shape-b", "cancel"}[k]
}

// The simulated tuning.
const (
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

// simShape is one cluster configuration.
type simShape struct{ ranges, replicas int }

func (sh simShape) String() string {
	return fmt.Sprintf("%d ranges x %d replicas", sh.ranges, sh.replicas)
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
	fronts map[simFront]*Coordinator
}

// simFront keys a cluster's assembled coordinator fronts: a front bakes in
// its tuning (the Retry-After it sends, the handler's deadline), so runs of
// one shape with another tuning need their own.
type simFront struct {
	shape simShape
	tu    tuning
}

// simPage is one request of the table: a /search page or a proxied GET, and
// the single server's status and, for a page, its body.
type simPage struct {
	name, path string
	proxied    bool
	code       int // the single server's status
	golden     []byte
}

var simClusters = map[int]*simCluster{}

func simClusterFor(t testing.TB, n int) *simCluster {
	t.Helper()
	if cl := simClusters[n]; cl != nil {
		return cl
	}
	sys, cs, m, query := testState(t)
	cl := &simCluster{n: n, shards: par.Shards(sys.Corpus.Len(), n), memo: map[string]reply{}, fronts: map[simFront]*Coordinator{}}
	g := sliceGroup(t, sys, cs, m, n)
	// No deadline, no admission cap, no cache: the zero tuning.
	off := Config{CacheEntries: -1}
	for ri := 0; ri < n; ri++ {
		srv := newPending(off, tuning{})
		srv.SetReadyMapped(sys, cs, m, g.Engine(ri), nil)
		cl.servers = append(cl.servers, srv)
	}
	ref := newPending(off, tuning{}).install(sys, cs, m)
	page := func(name, q string, boolean bool, offset, limit int) { // appended to the table
		pg := &simPage{name: name}
		pg.path = fmt.Sprintf("/search?q=%s%s&limit=%d&offset=%d", urlQuery(q), map[bool]string{true: "&boolean=1"}[boolean], limit, offset)
		rec := get(t, ref, pg.path)
		pg.code, pg.golden = rec.Code, rec.Body.Bytes()
		cl.pages = append(cl.pages, pg)
	}
	// rangeOf is the range holding paper d.
	rangeOf := func(d ctxsearch.PaperID) int {
		ri := 0
		for int(d) >= cl.shards[ri].Hi {
			ri++
		}
		return ri
	}
	// The offset page: the rows up to its end come from every range, so a
	// page that lost any range's rows would differ from it.
	page("offset", query, false, 1, 3)
	ranked, err := sys.Engine(m).SearchContext(context.Background(), query, ctxsearch.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held := map[int]bool{}
	for _, r := range ranked[:min(len(ranked), 1+3)] {
		held[rangeOf(r.Doc)] = true
	}
	if len(held) != n {
		t.Fatalf("fixture: the offset page's rows come from %d of %d ranges, losing another would prove nothing", len(held), n)
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
	out        simOut
	rep        reply // of an outOK or outClient call
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
	busy       int        // exchanges under way
	next       []int      // per-backend call index
	log        []*simCall
	flying     map[*simCall]bool
	probeFails map[int]int // failed health probes per backend
	req        int
	page       *simPage
	cancelReq  context.CancelFunc
	closed     bool           // every breaker was closed when the request came in
	before     shard.Snapshot // the counters when it came in
	arrived    map[int]bool   // ranges whose rows call reached a backend, this request
	barrier    chan struct{}  // closed once all but the finisher have; nil = not checked
	violations []string
}

func newSimRun(cl *simCluster, sh simShape, script map[simKey]simKind, tu tuning) *simRun {
	s := &simRun{cl: cl, shape: sh, script: script, flying: map[*simCall]bool{}, next: make([]int, sh.ranges*sh.replicas), probeFails: map[int]int{}}
	s.idle = sync.NewCond(&s.mu)
	s.clock.Store(time.Date(2007, 4, 15, 0, 0, 0, 0, time.UTC).UnixNano())
	ranges := make([][]int, sh.ranges)
	for g := range s.next {
		ranges[g/sh.replicas] = append(ranges[g/sh.replicas], g)
	}
	// The front of a shape and tuning is assembled once; every run gets its
	// own policy (breakers, budget, counters, rotation), every request an
	// empty cache.
	cl.mu.Lock()
	front := cl.fronts[simFront{sh, tu}]
	if front == nil {
		front = &Coordinator{backends: make([]string, len(s.next))}
		front.assemble(ranges, Config{}, tu, s)
		cl.fronts[simFront{sh, tu}] = front
	}
	cl.mu.Unlock()
	s.coord = front
	s.coord.policy = newPolicy(ranges, tu, s)
	return s
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

// after is the backoff sleep: there is nothing to race, so the clock jumps
// and the timer has fired.
func (s *simRun) after(d time.Duration) (<-chan time.Time, func() bool) {
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, s.clock.Add(int64(d)))
	return ch, func() bool { return false }
}

// probe feeds one health-probe verdict on backend g to the policy, as the
// prober does.
func (s *simRun) probe(g int, ok bool) {
	if !ok {
		s.probeFails[g]++
	}
	s.coord.onProbe(g, ok)
}

// end (deferred) marks an exchange finished.
func (s *simRun) end(c *simCall) {
	s.mu.Lock()
	if s.busy--; s.busy == 0 {
		s.idle.Broadcast()
	}
	delete(s.flying, c)
	s.mu.Unlock()
}

// exchange answers one backend call from the schedule. A call whose context
// has already ended is never sent (net/http would not send it either): it is
// logged, and takes no slot of the schedule.
func (s *simRun) exchange(ctx context.Context, g int, method, uri string, payload []byte) (rep reply, err error) {
	ri := g / s.shape.replicas
	c := &simCall{g: g, ri: ri, finish: bytes.Contains(payload, []byte(`"finish":`))}
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
	// TestCancelledRequestBurstNoLeak as a property: the policy waits for
	// every call it makes, so none outlives the request.
	for c := range s.flying {
		s.violate("call %d to backend %d outlives its request", c.seq, c.g)
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
	type callStat struct{ sent, failed, firstFinal, last int }
	calls := map[callKey]*callStat{}
	var mine []*simCall
	var rowsOK, finishAsked, finishOK uint
	var finished [][]byte
	var refusals []reply
	var cancelled bool
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
		clean = clean && c.out == outOK
		if c.idx < 0 {
			continue // never sent
		}
		st.sent++
		st.last = c.seq
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
	// Retries over the run are what the budget could have paid.
	if spent, cap := float64(snap.Retries), s.coord.tu.retryBudget+float64(rangeRequests(snap))*s.coord.tu.retryRatio; spent > cap {
		s.violate("%v retries, the budget covers %v", spent, cap)
	}
	// Each page is finished by the one attempt whose page is served: no row
	// is rendered that no client was sent.
	if snap.RowsRendered != snap.RowsServed {
		s.violate("%d rows rendered, %d served", snap.RowsRendered, snap.RowsServed)
	}
	// A backend's counters and breaker move only with what it was seen to
	// do, and its probes said: a cancelled call is a request and nothing
	// else.
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
		if rs.Requests != sent || rs.Errors+rs.Timeouts != failed {
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

	// Attempts per range call: 1 + maxRetries; a client error or the
	// client's cancellation ends the call at once.
	for k, st := range calls {
		if st.sent > attempts {
			s.violate("range %d (finish %v): %d attempts, at most %d allowed", k.ri, k.finish, st.sent, attempts)
		}
		if st.firstFinal >= 0 && st.last > st.firstFinal {
			for _, c := range s.log[st.firstFinal+1:] {
				if c.req == s.req && c.ri == k.ri && c.finish == k.finish && c.idx >= 0 {
					s.violate("range %d (finish %v): call %d sent after call %d had ended the range call", k.ri, k.finish, c.seq, st.firstFinal)
				}
			}
		}
	}

	// The finisher rotates, and is asked to finish only once every other
	// range has answered its rows. A healthy page costs one exchange per
	// range, and only the finisher's carries "finish".
	all := uint(1)<<s.shape.ranges - 1
	first := (s.req - 1) % s.shape.ranges
	if finishAsked != 0 && (finishAsked != 1<<first || rowsOK != all&^(1<<first)) {
		s.violate("finish asked of ranges %b with rows from ranges %b; want range %d, after every other range's rows", finishAsked, rowsOK, first)
	}
	if s.closed && clean && (len(mine) != s.shape.ranges || finishAsked != 1<<first || rowsOK != all&^(1<<first)) {
		s.violate("healthy page: %d exchanges over %d ranges, finish asked of ranges %b, rows of %b; want one each, range %d finishing",
			len(mine), s.shape.ranges, finishAsked, rowsOK, first)
	}

	switch {
	case cancelled:
	case rec.Code == 200:
		// Every 200 is the exact page: made of every range, the single
		// server's byte for byte, relayed as the finisher sent it, cached.
		set := finishOK | rowsOK
		switch {
		case finishOK != 1<<first:
			s.violate("200 with finishing answers from ranges %b, want range %d's alone", finishOK, first)
		case set != all:
			s.violate("200 made of ranges %b, not every range", set)
		case !bytes.Equal(body, s.page.golden):
			s.violate("200 is not the exact page\ngot:  %s\nwant: %s", body, s.page.golden)
		}
		relayed := false
		for _, b := range finished {
			relayed = relayed || bytes.Equal(b, body)
		}
		if !relayed {
			s.violate("200 body is no finishing answer, byte for byte")
		}
		if s.coord.cache.Stats().Entries != 1 {
			s.violate("the exact page was not cached")
		}
	case rec.Code >= 400 && rec.Code < 500:
	case rec.Code == 503:
		if finishOK != 0 {
			s.violate("503 although range(s) %b finished the page", finishOK)
		}
		// Someone must have run out of attempts.
		exhausted := excused
		for _, st := range calls {
			exhausted = exhausted || st.sent == attempts && st.failed >= attempts
		}
		if !exhausted {
			s.violate("503 before any range call had used its %d attempts", attempts)
		}
	default:
		s.violate("answered %d: %s", rec.Code, body)
	}
	// Nothing races, so the outcome is the log's.
	if !cancelled {
		switch {
		case len(refusals) > 0 && (rec.Code < 400 || rec.Code >= 500):
			s.violate("a backend's client error was answered with %d", rec.Code)
		case len(refusals) == 0 && finishOK != 0 && rec.Code != 200:
			s.violate("range %b finished the page, answered %d", finishOK, rec.Code)
		}
	}
}

// checkProxy holds a proxied GET against its calls: the backends are asked
// in turn, each at most once, until one answers — a 200 or a client error,
// relayed verbatim (/stats decorated with the coordinator's counters) — or
// the client leaves; a 503 only once every backend its breaker admits has
// failed; and no range call, retry or budget token is spent on it.
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
	if rangeRequests(snap) != rangeRequests(s.before) || snap.Retries != s.before.Retries || snap.RetriesDenied != s.before.RetriesDenied {
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
// and 1 + 2 over its two (the order a range call visits them). Two faulty
// ranges to depth 2 each: the finisher and a rows range, of 2 and of 3 ranges
// on one replica, and of 3 ranges on two, on the first replica of each. Every
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
	// One faulty range: {ranges, the faulty one}.
	for _, f := range [][2]int{{1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1}} {
		run(simShape{f[0], 1}, []int{f[1]}, []int{1 + simMaxRetries})
		if f[0] == 2 {
			continue // 1 and 3 ranges bracket it
		}
		sh := simShape{f[0], 2}
		run(sh, []int{2 * f[1], 2*f[1] + 1}, []int{2, 1})
		run(sh, []int{2 * f[1], 2*f[1] + 1}, []int{1, 2})
	}
	// Two faulty ranges: the finisher and a rows range.
	run(simShape{2, 1}, []int{0, 1}, []int{2, 2})
	run(simShape{3, 1}, []int{0, 1}, []int{2, 2})
	run(simShape{3, 2}, []int{0, 2}, []int{2, 2})
	t.Logf("%d distinct schedules on the offset page; %d of them also on another /search page, %d on a proxied GET", len(seen), pages, gets)
	// The enumeration above, counted: a change to it restates the count.
	if !testing.Short() && len(seen) != 4487 {
		t.Fatalf("full mode ran %d schedules, want 4487", len(seen))
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

// TestPolicySimFrontPerTuning: two runs of one shape whose breaker
// cool-downs differ each answer a page no range can finish with their own
// Retry-After, so a front assembled for one tuning never serves another.
func TestPolicySimFrontPerTuning(t *testing.T) {
	sh := simShape{ranges: 2, replicas: 1}
	nowhere := map[simKey]simKind{}
	for i := 0; i < 1+simMaxRetries; i++ {
		nowhere[simKey{0, i}], nowhere[simKey{1, 1 + i}] = sim5xx, sim5xx
	}
	for _, cooldown := range []time.Duration{5 * time.Second, 7 * time.Second} {
		tu := simTuning()
		tu.breakerCooldown = cooldown
		_, recs := simServe(t, sh, tu, nowhere, "offset")
		if want := retryAfterSecs(cooldown); recs[0].Code != 503 || recs[0].Header().Get("Retry-After") != want {
			t.Fatalf("cool-down %v: %d with Retry-After %q, want 503 with %q", cooldown, recs[0].Code, recs[0].Header().Get("Retry-After"), want)
		}
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
//	byte 0: ranges 1 + b%3, bit 2: two replicas, bit 5: a retry budget of one
//	        token (ratio 0.1)
//	byte 1: requests 1 + b%4, bit 2: the breaker cool-down passes between them,
//	        bits 3–7: the first request's row of the table (the rest follow it)
//	byte 2+j: the outcome (b%7, a simKind) of call j/backends of backend j%backends
func FuzzCoordinatorSchedule(f *testing.F) {
	for n := 1; n <= 3; n++ {
		simClusterFor(f, n)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+96 {
			return
		}
		sh := simShape{ranges: 1 + int(data[0]%3), replicas: 1 + int(data[0]>>2&1)}
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
