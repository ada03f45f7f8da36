package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ctxsearch"
	"ctxsearch/internal/cache"
	"ctxsearch/internal/par"
	"ctxsearch/internal/resilience"
	"ctxsearch/internal/shard"
)

// DefaultShardTimeout bounds each shard sub-request of a scatter-gather
// query. It is deliberately shorter than DefaultQueryTimeout so a slow
// shard resolves into a 503 (or a flagged partial page) while the client
// request still has budget to carry the answer.
const DefaultShardTimeout = time.Second

// DefaultMaxRetries is how many times a failed range call is retried on
// another (or, with one replica, the same) backend before giving up.
const DefaultMaxRetries = 2

// ShardConfig tunes the coordinator's fan-out and resilience behaviour.
type ShardConfig struct {
	// ShardTimeout bounds each per-replica sub-request — each retry and
	// hedge gets a fresh allowance (0 = DefaultShardTimeout, negative = no
	// per-attempt deadline — the request deadline still applies).
	ShardTimeout time.Duration
	// AllowPartial serves a degraded page flagged "partial": true when some
	// shard ranges fail, instead of a 503. Client errors (a shard's 400) are
	// always relayed, never degraded around.
	AllowPartial bool

	// MaxRetries caps retry attempts per range call, on top of the first
	// attempt (0 = DefaultMaxRetries, negative = no retries). Each retry
	// prefers a replica not yet tried and must be covered by the retry
	// budget.
	MaxRetries int
	// RetryBudget is the retry token bucket's capacity (0 =
	// resilience.DefaultBudgetCapacity, negative = unbounded retries — for
	// tests only). RetryRatio is the per-request deposit (0 =
	// resilience.DefaultBudgetRatio).
	RetryBudget float64
	RetryRatio  float64
	// HedgeAfter, when positive, fires a hedge request to a second replica
	// if the first has not answered within this delay, taking whichever
	// succeeds first and cancelling the loser. Hedges draw from the retry
	// budget. Zero disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold and BreakerCooldown tune the per-backend circuit
	// breakers (0 = resilience defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeInterval is the active health-probe period per backend (0 =
	// resilience.DefaultProbeInterval, negative = no prober — every backend
	// is assumed healthy).
	ProbeInterval time.Duration
	// Backoff spaces retries out (zero value = resilience defaults; set
	// Jitter negative for deterministic delays in tests).
	Backoff resilience.Backoff
}

func (c ShardConfig) shardTimeout() time.Duration {
	if c.ShardTimeout == 0 {
		return DefaultShardTimeout
	}
	if c.ShardTimeout < 0 {
		return 0
	}
	return c.ShardTimeout
}

func (c ShardConfig) maxRetries() int {
	if c.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return c.MaxRetries
}

// Coordinator is the multi-process scatter-gather front: a stateless
// http.Handler that fans /search out to shard servers' POST /shard/search —
// every range but one answers unrendered rows, the last is handed their exact
// merge and answers the finished page, relayed verbatim (the healthy-path
// body is byte-identical to a single-engine server's) — and proxies the
// per-paper endpoints to the backends. It holds no corpus state at all — it
// can boot instantly and restart freely.
//
// Each shard range may be served by several replicas (all built from the
// same deterministic artifact, so any replica's page is byte-identical).
// The resilience layer stacks four mechanisms around replica calls:
//
//   - a circuit breaker per backend trips after consecutive failures and
//     stops sending until a cool-down probe succeeds, so a dead replica
//     costs at most a handful of requests, not one per query;
//   - failed range calls retry on the next replica with exponential
//     backoff, governed by a global retry token budget that bounds retry
//     amplification during outages (R requests can add at most
//     capacity + R·ratio retries);
//   - optional hedging races a second replica when the first is slow;
//   - an active health prober feeds breaker state so recovery is detected
//     without sacrificing user queries.
//
// Failure policy: a shard that answers 400 fails the query with that 400
// (bad queries are deterministic across shards). A range whose replicas
// all fail either fails the query with 503 (default) or, with
// ShardConfig.AllowPartial, degrades it into a page flagged "partial":
// true computed from the healthy ranges; if the range that failed was the
// one asked to finish, the next answered range finishes instead, searching
// its own papers a second time. Partial pages are never cached, so a
// recovered range immediately restores exact answers. Every attempt
// is bounded by ShardTimeout — a dead or hung replica can delay a query,
// never hang it.
type Coordinator struct {
	cfg      Config
	scfg     ShardConfig
	logger   *log.Logger
	handler  http.Handler
	inflight chan struct{}
	// cache mirrors the Server's /search body cache. Only exact (all-range)
	// responses are inserted; see errPartial.
	cache   *cache.Cache[[]byte]
	metrics *shard.Metrics

	// backends is the flat list of replica base URLs; ranges[ri] lists the
	// backend indices replicating range ri; rangeOf inverts that.
	backends []string
	ranges   [][]int
	rangeOf  []int

	client   *http.Client
	breakers []*resilience.Breaker
	budget   *resilience.Budget // nil = unbounded (RetryBudget < 0)
	backoff  resilience.Backoff
	prober   *resilience.Prober // nil = probing disabled

	// retryAfter is the Retry-After hint on backend-unavailable 503s: the
	// longer of the per-attempt timeout and the breaker cool-down — the
	// soonest a retry could plausibly see a recovered backend.
	retryAfter string

	// rr distributes single-backend requests (/contexts, /papers/{id},
	// /stats) across backends — every backend holds the full corpus-global
	// system state, so any backend answers these exactly — and rotates the
	// range that finishes each search. replicaRR rotates the preferred
	// replica within each range.
	rr        atomic.Uint64
	replicaRR []atomic.Uint64
}

// NewCoordinator assembles a coordinator over the given shard range URLs.
// Each element serves one contiguous paper range and may list several
// replica base URLs separated by "|" (e.g.
// "http://127.0.0.1:8101|http://127.0.0.1:8201"). The middleware stack
// matches the single-engine server's: request deadline, load shedding,
// panic recovery and request logging, with /healthz and /readyz exempt
// from shedding. Close must be called to stop the health prober.
func NewCoordinator(urls []string, cfg Config, scfg ShardConfig) *Coordinator {
	if len(urls) == 0 {
		panic("server: NewCoordinator needs at least one shard URL")
	}
	c := &Coordinator{
		cfg:     cfg,
		scfg:    scfg,
		logger:  cfg.Logger,
		backoff: scfg.Backoff,
	}
	for ri, group := range urls {
		var members []int
		for _, u := range strings.Split(group, "|") {
			u = strings.TrimSpace(strings.TrimRight(u, "/"))
			if u == "" {
				continue
			}
			members = append(members, len(c.backends))
			c.backends = append(c.backends, u)
			c.rangeOf = append(c.rangeOf, ri)
		}
		if len(members) == 0 {
			panic("server: NewCoordinator range with no replica URLs")
		}
		c.ranges = append(c.ranges, members)
	}
	if c.logger == nil {
		c.logger = log.New(io.Discard, "", 0)
	}
	// Every admitted query holds at most one connection per backend at a
	// time, so the admission cap is also the idle pool a backend needs for
	// connections to survive a burst. http.DefaultTransport keeps two.
	conns := DefaultMaxInflight
	if n := cfg.maxInflight(); n > 0 {
		c.inflight = make(chan struct{}, n)
		conns = n
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	tr.MaxIdleConns = conns * len(c.backends)
	c.client = &http.Client{Transport: tr}
	c.cache = cache.New[[]byte](cfg.cacheEntries(), cfg.cacheTTL())
	c.metrics = shard.NewMetricsReplicated(len(c.ranges), c.rangeOf)
	c.replicaRR = make([]atomic.Uint64, len(c.ranges))

	if scfg.RetryBudget >= 0 {
		c.budget = resilience.NewBudget(resilience.BudgetConfig{
			Capacity: scfg.RetryBudget,
			Ratio:    scfg.RetryRatio,
		})
	}
	c.breakers = make([]*resilience.Breaker, len(c.backends))
	for g := range c.backends {
		c.breakers[g] = resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: scfg.BreakerThreshold,
			Cooldown:         scfg.BreakerCooldown,
			OnOpen:           c.metrics.ObserveBreakerOpen,
		})
	}
	if scfg.ProbeInterval >= 0 {
		c.prober = resilience.NewProber(c.backends, resilience.ProberConfig{
			Interval: scfg.ProbeInterval,
			OnProbe:  c.onProbe,
		}, c.client)
	}
	cooldown := resilience.DefaultCooldown
	if scfg.BreakerCooldown > 0 {
		cooldown = scfg.BreakerCooldown
	}
	hint := c.scfg.shardTimeout()
	if cooldown > hint {
		hint = cooldown
	}
	c.retryAfter = retryAfterSecs(hint)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", c.handleSearch)
	mux.HandleFunc("GET /contexts", c.handleProxy)
	mux.HandleFunc("GET /papers/{id}", c.handleProxy)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", c.handleReadyz)

	api := withShedding(c.inflight, retryAfterSecs(cfg.queryTimeout()), withTimeout(cfg.queryTimeout(), mux))
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			mux.ServeHTTP(w, r)
		default:
			api.ServeHTTP(w, r)
		}
	})
	c.handler = withLogging(c.logger, withRecovery(c.logger, root))
	return c
}

// Close stops the health prober's goroutines (safe to call on a
// coordinator without one) and closes the idle backend connections.
func (c *Coordinator) Close() {
	if c.prober != nil {
		c.prober.Close()
	}
	c.client.CloseIdleConnections()
}

// onProbe feeds one health-probe verdict into the backend's breaker. A
// failed probe always counts (probes alone trip the breaker of a dead
// replica, before any query pays for the discovery). A successful probe
// only counts while the breaker is not closed — in the closed state it
// must not reset the consecutive-failure count, or a backend whose
// /healthz answers while /shard/search fails would never trip. For an
// open breaker past its cool-down, the probe itself performs the
// half-open transition, so recovery never costs a user query.
func (c *Coordinator) onProbe(g int, ok bool) {
	b := c.breakers[g]
	if !ok {
		b.Record(false)
		return
	}
	if b.State() != resilience.Closed && b.Allow() {
		b.Record(true)
	}
}

// healthy reports the prober's latest verdict (true when probing is off).
func (c *Coordinator) healthy(g int) bool {
	return c.prober == nil || c.prober.Healthy(g)
}

// NumShards returns the number of shard ranges.
func (c *Coordinator) NumShards() int { return len(c.ranges) }

// NumBackends returns the number of physical replicas across all ranges.
func (c *Coordinator) NumBackends() int { return len(c.backends) }

// Metrics returns the coordinator's fan-out counters.
func (c *Coordinator) Metrics() *shard.Metrics { return c.metrics }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

// shardCallError is one failed range call. shard is the range index;
// status is the backend's HTTP status when a response arrived (0 for
// transport failures); body carries the backend's error payload for
// relaying client errors.
type shardCallError struct {
	shard  int
	status int
	body   []byte
	err    error
}

func (e *shardCallError) Error() string {
	if e.err != nil {
		return fmt.Sprintf("shard %d: %v", e.shard, e.err)
	}
	return fmt.Sprintf("shard %d: status %d", e.shard, e.status)
}

func (e *shardCallError) Unwrap() error { return e.err }

// errAllReplicasDown marks a range call that found no admissible replica:
// every breaker for the range is open and still cooling down.
var errAllReplicasDown = errors.New("all replicas unavailable (circuit open)")

// errPartial smuggles a degraded response body through cache.Do, which
// never caches loads that return an error — exactly the behaviour partial
// pages need (a recovered shard must not be masked by a cached degraded
// page).
type errPartial struct{ body []byte }

func (*errPartial) Error() string { return "partial response" }

// budgetWithdraw asks the retry budget for one token (always granted when
// the budget is disabled).
func (c *Coordinator) budgetWithdraw() bool {
	return c.budget == nil || c.budget.Withdraw()
}

// sleepCtx waits d, or less if ctx ends first (returning its error).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pickReplica selects the replica of range ri for the next attempt,
// skipping already-tried backends. Preference order: healthy backends the
// breaker admits, then unhealthy ones it admits (when the prober has
// marked everything down, trying is still better than refusing — probes
// can be stale). Selection rotates per range so load spreads across
// replicas. A backend whose breaker refuses is never picked; if that
// leaves nothing, the range is reported down (false).
func (c *Coordinator) pickReplica(ri int, tried map[int]bool) (int, bool) {
	reps := c.ranges[ri]
	n := len(reps)
	start := int(c.replicaRR[ri].Add(1)-1) % n
	// Pass 1: healthy and admitted. Allow() has side effects (it admits
	// half-open probes), so each breaker is consulted at most once across
	// both passes.
	for k := 0; k < n; k++ {
		g := reps[(start+k)%n]
		if tried[g] || !c.healthy(g) {
			continue
		}
		if c.breakers[g].Allow() {
			return g, true
		}
	}
	// Pass 2: the backends pass 1 skipped for health.
	for k := 0; k < n; k++ {
		g := reps[(start+k)%n]
		if tried[g] || c.healthy(g) {
			continue
		}
		if c.breakers[g].Allow() {
			return g, true
		}
	}
	return 0, false
}

// rangeCall is one range's /shard/search request: the marshalled payload and
// whether it carries "finish".
type rangeCall struct {
	payload []byte
	finish  bool
}

// rangePage is one range's answer to /shard/search: its ranked, unrendered
// rows or, to a finishing call, the finished /search body and its row count.
type rangePage struct {
	rows []ShardRow
	body []byte
	n    int
}

// callReplica runs one POST /shard/search attempt against backend g. An
// answer in any other shape than the one asked for — rows without unknown
// fields, or a page under pageRowsHeader — comes from a backend of another
// version and is that backend's failure, never relayed.
func (c *Coordinator) callReplica(ctx context.Context, g int, call rangeCall) (rangePage, *shardCallError) {
	t0 := time.Now()
	body, hdr, cerr := c.post(ctx, g, call.payload)
	var page rangePage
	var err error
	switch {
	case cerr != nil:
	case call.finish:
		page.body = body
		if page.n, err = strconv.Atoi(hdr.Get(pageRowsHeader)); err != nil || page.n < 0 {
			err = fmt.Errorf("finished page with %s %q", pageRowsHeader, hdr.Get(pageRowsHeader))
		}
	default:
		var resp ShardSearchResponse
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&resp)
		page.rows = resp.Results
	}
	if err != nil {
		page, cerr = rangePage{}, &shardCallError{shard: c.rangeOf[g], err: fmt.Errorf("bad shard response: %w", err)}
	}
	if call.finish {
		c.metrics.ObserveRender(page.n, time.Since(t0))
	}
	c.record(ctx, g, cerr)
	return page, cerr
}

// record folds one attempt against backend g into its breaker and replica
// counters. A cancelled attempt (hedge loser, abandoned client) is never
// recorded into the breaker — a cancellation says nothing about the
// backend.
func (c *Coordinator) record(ctx context.Context, g int, cerr *shardCallError) {
	switch {
	case cerr != nil && errors.Is(ctx.Err(), context.Canceled):
		c.metrics.ObserveReplica(g, context.Canceled)
	case cerr == nil || cerr.status >= 400 && cerr.status < 500:
		// A client error means the backend is alive and answering; it is a
		// property of the request, not the replica.
		c.metrics.ObserveReplica(g, nil)
		c.breakers[g].Record(true)
	default:
		err := cerr.err
		if err == nil {
			err = fmt.Errorf("status %d", cerr.status)
		}
		c.metrics.ObserveReplica(g, err)
		c.breakers[g].Record(false)
	}
}

// maxBackendBody caps what the coordinator reads of one backend answer.
const maxBackendBody = 64 << 20

// readBody reads a backend answer whole; one past the cap is an error, not a
// body cut short.
func readBody(resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBackendBody+1))
	if err == nil && len(body) > maxBackendBody {
		err = fmt.Errorf("backend answer exceeds %d bytes", maxBackendBody)
	}
	return body, err
}

// post is the bare HTTP exchange of one attempt: payload to backend g's
// /shard/search under a fresh per-attempt deadline, returning the body and
// header of a 200.
func (c *Coordinator) post(ctx context.Context, g int, payload []byte) ([]byte, http.Header, *shardCallError) {
	ri := c.rangeOf[g]
	if d := c.scfg.shardTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.backends[g]+"/shard/search", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, &shardCallError{shard: ri, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		// client.Do wraps the context error; surface it for the
		// timeout-vs-error metrics split.
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
		return nil, nil, &shardCallError{shard: ri, err: err}
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
		return nil, nil, &shardCallError{shard: ri, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, &shardCallError{shard: ri, status: resp.StatusCode, body: body}
	}
	return body, resp.Header, nil
}

// callAttempt runs one (possibly hedged) attempt for range ri, marking
// every backend it touches in tried. Without hedging it is a single
// replica call. With hedging, if the primary has not answered within
// HedgeAfter and the budget covers it, a second replica races it: the
// first success wins and the loser is cancelled.
func (c *Coordinator) callAttempt(ctx context.Context, ri int, tried map[int]bool, call rangeCall) (rangePage, *shardCallError) {
	g, ok := c.pickReplica(ri, tried)
	if !ok && len(tried) > 0 {
		// Every replica has been tried this call: a retry may revisit them
		// (with one replica per range, retrying means retrying it).
		for k := range tried {
			delete(tried, k)
		}
		g, ok = c.pickReplica(ri, tried)
	}
	if !ok {
		return rangePage{}, &shardCallError{shard: ri, err: errAllReplicasDown}
	}
	tried[g] = true
	if c.scfg.HedgeAfter <= 0 || len(c.ranges[ri]) < 2 {
		return c.callReplica(ctx, g, call)
	}

	type outcome struct {
		page   rangePage
		err    *shardCallError
		hedged bool
	}
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	ch := make(chan outcome, 2)
	go func() {
		page, err := c.callReplica(actx, g, call)
		ch <- outcome{page, err, false}
	}()

	timer := time.NewTimer(c.scfg.HedgeAfter)
	defer timer.Stop()
	select {
	case o := <-ch:
		// Primary resolved before the hedge delay: no hedge needed.
		return o.page, o.err
	case <-ctx.Done():
		return rangePage{}, &shardCallError{shard: ri, err: ctx.Err()}
	case <-timer.C:
	}

	// Primary is slow. Fire a hedge if a fresh replica and budget exist;
	// otherwise keep waiting on the primary alone.
	g2, ok2 := c.pickReplica(ri, tried)
	if !ok2 || !c.budgetWithdraw() {
		select {
		case o := <-ch:
			return o.page, o.err
		case <-ctx.Done():
			return rangePage{}, &shardCallError{shard: ri, err: ctx.Err()}
		}
	}
	tried[g2] = true
	go func() {
		page, err := c.callReplica(actx, g2, call)
		ch <- outcome{page, err, true}
	}()

	var lastErr *shardCallError
	for i := 0; i < 2; i++ {
		select {
		case o := <-ch:
			if o.err == nil {
				cancelAll() // the loser stops; its cancel is not recorded
				c.metrics.ObserveHedge(o.hedged)
				return o.page, nil
			}
			lastErr = o.err
		case <-ctx.Done():
			return rangePage{}, &shardCallError{shard: ri, err: ctx.Err()}
		}
	}
	c.metrics.ObserveHedge(false)
	return rangePage{}, lastErr
}

// callRange resolves range ri: a first attempt plus up to MaxRetries
// budget-covered retries with exponential backoff, each attempt preferring
// a replica not yet tried. Client errors (4xx) and cancellations are
// returned immediately — retrying them is waste.
func (c *Coordinator) callRange(ctx context.Context, ri int, call rangeCall) (rangePage, *shardCallError) {
	if c.budget != nil {
		c.budget.Deposit()
	}
	tried := make(map[int]bool)
	var lastErr *shardCallError
	fails := 0
	for attempt := 0; attempt <= c.scfg.maxRetries(); attempt++ {
		if attempt > 0 {
			if !c.budgetWithdraw() {
				c.metrics.ObserveRetryDenied()
				break
			}
			c.metrics.ObserveRetry()
			if err := sleepCtx(ctx, c.backoff.Delay(attempt, nil)); err != nil {
				return rangePage{}, &shardCallError{shard: ri, err: err}
			}
		}
		page, cerr := c.callAttempt(ctx, ri, tried, call)
		if cerr == nil {
			if fails > 0 {
				c.metrics.ObserveFailover()
			}
			return page, nil
		}
		lastErr = cerr
		if cerr.status >= 400 && cerr.status < 500 {
			return rangePage{}, cerr // deterministic client error: never retry
		}
		if ctx.Err() != nil {
			return rangePage{}, cerr // the request itself is over
		}
		fails++
	}
	return rangePage{}, lastErr
}

func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	p, ok := parseSearchParams(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	body, err := c.cache.Do(searchCacheKey(p.q, p.boolean, p.opts), func() ([]byte, error) {
		return c.buildSearchResponse(ctx, p)
	})
	var pb *errPartial
	if errors.As(err, &pb) {
		body, err = pb.body, nil
	}
	if err != nil {
		c.writeShardErr(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// queryError picks the error that fails a query from its range errors: a
// client error first — it is deterministic across shards (same query, same
// analyzer), so it is relayed instead of degraded around — else, unless the
// page may degrade, the first failed range's.
func queryError(errs []*shardCallError, degrade bool) *shardCallError {
	var first *shardCallError
	for _, e := range errs {
		switch {
		case e == nil:
		case e.status >= 400 && e.status < 500:
			return e
		case first == nil && !degrade:
			first = e
		}
	}
	return first
}

// buildSearchResponse fans one query out to every shard range but one, merges
// their unrendered rows and has the remaining range finish the page: search
// its own papers, merge, render. The finisher rotates, so rendering spreads
// over the ranges, and its call is a range call like any other. The returned
// error is either a *shardCallError / pipeline error (request failed) or
// *errPartial (degraded body that must bypass the cache).
func (c *Coordinator) buildSearchResponse(ctx context.Context, p searchParams) ([]byte, error) {
	// The scatter transformation: every range returns its own top
	// offset+limit rows; the offset is applied after the last merge.
	// parseSearchParams guarantees limit >= 1.
	req := ShardSearchRequest{
		Q:         p.q,
		Boolean:   p.boolean,
		Limit:     p.opts.Offset + p.opts.Limit,
		Threshold: p.opts.Threshold,
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	n := len(c.ranges)
	first := int(c.rr.Add(1)-1) % n
	got := make([]rangePage, n)
	errs := make([]*shardCallError, n)
	call := func(ri int, rc rangeCall) time.Duration {
		t0 := time.Now()
		got[ri], errs[ri] = c.callRange(ctx, ri, rc)
		if errs[ri] != nil {
			c.metrics.ObserveShard(ri, errs[ri])
		} else {
			c.metrics.ObserveShard(ri, nil)
		}
		return time.Since(t0)
	}
	// One goroutine per rows call (inline when there is one): the calls wait
	// on the network, so the fan-out is as wide as the cluster, not the CPU.
	var maxShard shard.AtomicMaxDuration
	par.For(n-1, n-1, func(k int) {
		maxShard.Observe(call((first+1+k)%n, rangeCall{payload: payload}))
	})

	// The finisher is the first range in rotation order that has not failed;
	// past the first that is the degraded path, where a range that already
	// answered rows searches again — one duplicated engine pass instead of a
	// render-only mode on the wire.
	var merge time.Duration
	for k := 0; k < n; k++ {
		if e := queryError(errs, c.scfg.AllowPartial); e != nil {
			return nil, e
		}
		ri := (first + k) % n
		if errs[ri] != nil {
			continue
		}
		pages := make([][]ShardRow, 0, n)
		for rj := range got {
			if rj != ri && errs[rj] == nil {
				pages = append(pages, got[rj].rows)
			}
		}
		partial := len(pages) < n-1
		t0 := time.Now()
		rows := shard.MergePages(pages, ctxsearch.SearchOptions{Limit: req.Limit})
		merge += time.Since(t0)
		req.Finish = &ShardFinish{Offset: p.opts.Offset, Limit: p.opts.Limit, Partial: partial, Rows: rows}
		if payload, err = json.Marshal(req); err != nil {
			return nil, err
		}
		if call(ri, rangeCall{payload: payload, finish: true}); errs[ri] != nil {
			continue
		}
		// The body is relayed as it arrived — never decoded, never
		// re-marshalled.
		c.metrics.ObserveSearch(maxShard.Load(), merge)
		c.metrics.ObserveServed(got[ri].n)
		if partial {
			c.metrics.ObservePartial()
			return nil, &errPartial{body: got[ri].body}
		}
		return got[ri].body, nil
	}
	return nil, queryError(errs, false)
}

// writeShardErr maps a failed scatter-gather to a response: relayed client
// errors keep the backend's status and body, everything else (timeouts,
// dead backends, 5xx, tripped breakers) is a 503 with a Retry-After
// derived from the shard timeout and breaker cool-down — the coordinator
// is healthy, the backend is not.
func (c *Coordinator) writeShardErr(w http.ResponseWriter, r *http.Request, err error) {
	var sce *shardCallError
	if errors.As(err, &sce) {
		if sce.status >= 400 && sce.status < 500 && json.Valid(sce.body) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(sce.status)
			_, _ = w.Write(sce.body)
			return
		}
		if errors.Is(sce.err, context.Canceled) {
			c.logger.Printf("client abandoned %s %s", r.Method, r.URL.Path)
			return
		}
		c.logger.Printf("shard failure on %s %s: %v", r.Method, r.URL.Path, sce)
		w.Header().Set("Retry-After", c.retryAfter)
		writeErr(w, http.StatusServiceUnavailable, "shard %d unavailable", sce.shard)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		w.Header().Set("Retry-After", retryAfterSecs(c.cfg.queryTimeout()))
		writeErr(w, http.StatusServiceUnavailable, "query deadline exceeded")
		return
	}
	if errors.Is(err, context.Canceled) {
		c.logger.Printf("client abandoned %s %s", r.Method, r.URL.Path)
		return
	}
	writeErr(w, http.StatusBadGateway, "shard backend error: %v", err)
}

// proxyOrder returns all backends in round-robin order, healthy ones
// first — the candidate sequence for proxied single-backend requests.
func (c *Coordinator) proxyOrder() []int {
	n := len(c.backends)
	start := int(c.rr.Add(1)-1) % n
	order := make([]int, 0, n)
	for k := 0; k < n; k++ {
		if g := (start + k) % n; c.healthy(g) {
			order = append(order, g)
		}
	}
	for k := 0; k < n; k++ {
		if g := (start + k) % n; !c.healthy(g) {
			order = append(order, g)
		}
	}
	return order
}

// proxyFetch runs one GET against the candidate backends in order,
// failing over past dead, erroring or breaker-rejected ones. A 2xx–4xx
// response is final (a 404 paper is a 404 from every backend); 5xx and
// transport errors move on. Outcomes feed breakers and replica counters;
// proxied failover is bounded by the backend count and does not draw from
// the retry budget.
func (c *Coordinator) proxyFetch(ctx context.Context, uri string) (int, http.Header, []byte, *shardCallError) {
	var lastErr *shardCallError
	for _, g := range c.proxyOrder() {
		if !c.breakers[g].Allow() {
			continue
		}
		status, hdr, body, err := c.fetch(ctx, g, uri)
		if errors.Is(ctx.Err(), context.Canceled) {
			return 0, nil, nil, &shardCallError{shard: c.rangeOf[g], err: ctx.Err()}
		}
		switch {
		case err == nil && status < 500:
			c.metrics.ObserveReplica(g, nil)
			c.breakers[g].Record(true)
			return status, hdr, body, nil
		case err == nil:
			c.metrics.ObserveReplica(g, fmt.Errorf("status %d", status))
			c.breakers[g].Record(false)
			lastErr = &shardCallError{shard: c.rangeOf[g], status: status, body: body}
		default:
			c.metrics.ObserveReplica(g, err)
			c.breakers[g].Record(false)
			lastErr = &shardCallError{shard: c.rangeOf[g], err: err}
		}
	}
	if lastErr == nil {
		lastErr = &shardCallError{err: errAllReplicasDown}
	}
	return 0, nil, nil, lastErr
}

// handleProxy forwards a single-backend request and relays the response
// verbatim, failing over across every backend (each holds the full
// corpus, so these endpoints are exact from any one of them).
func (c *Coordinator) handleProxy(w http.ResponseWriter, r *http.Request) {
	status, hdr, body, cerr := c.proxyFetch(r.Context(), r.URL.RequestURI())
	if cerr != nil {
		c.writeShardErr(w, r, cerr)
		return
	}
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// fetch GETs one backend endpoint under the per-attempt deadline.
func (c *Coordinator) fetch(ctx context.Context, g int, uri string) (int, http.Header, []byte, error) {
	if d := c.scfg.shardTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.backends[g]+uri, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, body, nil
}

// handleStats serves corpus statistics from any backend (they are global
// on every one) overlaid with the coordinator's own cache, fan-out and
// resilience counters. /stats is exactly the endpoint an operator hits
// during an outage, so it fails over across every backend and decorates
// the replica counters with live breaker and health state.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	status, _, body, cerr := c.proxyFetch(r.Context(), "/stats")
	if cerr == nil && status != http.StatusOK {
		cerr = &shardCallError{status: status, body: body}
	}
	if cerr != nil {
		c.writeShardErr(w, r, cerr)
		return
	}
	var resp StatsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.writeShardErr(w, r, &shardCallError{err: err})
		return
	}
	cst := c.cache.Stats()
	resp.CacheHits = cst.Hits
	resp.CacheMisses = cst.Misses
	resp.CacheCoalesced = cst.Coalesced
	resp.CacheEntries = cst.Entries
	snap := c.metrics.Snapshot()
	for g := range snap.Replicas {
		snap.Replicas[g].URL = c.backends[g]
		snap.Replicas[g].State = c.breakers[g].State().String()
		snap.Replicas[g].Healthy = c.healthy(g)
	}
	resp.Sharding = &snap
	writeJSON(w, http.StatusOK, resp)
}

// handleReadyz reports ready only when every shard range has at least one
// replica whose /readyz is ready — that is exactly the condition under
// which the coordinator can still answer every query exactly.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	n := len(c.backends)
	up := make([]bool, n)
	par.For(n, n, func(g int) {
		status, _, _, err := c.fetch(r.Context(), g, "/readyz")
		up[g] = err == nil && status == http.StatusOK
	})
	var waiting []string
	for _, reps := range c.ranges {
		ok := false
		for _, g := range reps {
			if up[g] {
				ok = true
				break
			}
		}
		if !ok {
			for _, g := range reps {
				waiting = append(waiting, c.backends[g])
			}
		}
	}
	if len(waiting) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting", "waiting_for": waiting,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
