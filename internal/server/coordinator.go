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

	"ctxsearch/internal/cache"
	"ctxsearch/internal/par"
	"ctxsearch/internal/resilience"
	"ctxsearch/internal/shard"
)

// The coordinator's failure policy, the one value of each in use.
const (
	// shardTimeout bounds each per-replica sub-request — each retry and hedge
	// gets a fresh allowance. It is deliberately shorter than queryTimeout so
	// a slow shard resolves into a 503 (or a flagged partial page) while the
	// client request still has budget to carry the answer.
	shardTimeout = time.Second
	// maxRetries caps retry attempts per range call, on top of the first
	// attempt. Each retry prefers a replica not yet tried and must be covered
	// by the retry budget.
	maxRetries = 2
	// retryBudget is the retry token bucket's capacity, and retryRatio what
	// each range call's first attempt deposits — an n-range page makes n.
	// Retries and hedges each take a token.
	retryBudget = 10.0
	retryRatio  = 0.1
	// breakerThreshold consecutive failures trip a backend's circuit
	// breaker, which rejects for breakerCooldown before a half-open probe.
	breakerThreshold = 5
	breakerCooldown  = 2 * time.Second
	// probeInterval is the active health-probe period per backend.
	probeInterval = 500 * time.Millisecond
	// Retry n waits backoffBase·2^(n-1), capped at backoffMax, less up to a
	// backoffJitter fraction of it at random.
	backoffBase   = 20 * time.Millisecond
	backoffMax    = 500 * time.Millisecond
	backoffJitter = 0.5
)

// ShardConfig is what a deployment sets of the coordinator's fan-out: two
// mechanisms, each on or off.
type ShardConfig struct {
	// AllowPartial serves a degraded page flagged "partial": true when some
	// shard ranges fail, instead of a 503. Client errors (a shard's 400) are
	// always relayed, never degraded around.
	AllowPartial bool
	// HedgeAfter, when positive, fires a hedge request to a second replica
	// if the first has not answered within this delay, taking whichever
	// succeeds first and cancelling the loser. Hedges draw from the retry
	// budget. Zero disables hedging.
	HedgeAfter time.Duration
}

// Coordinator is the multi-process scatter-gather front: a stateless
// http.Handler that fans /search out to shard servers' POST /shard/search —
// every range but one answers unrendered rows, the last is handed their exact
// merge and answers the finished page, relayed verbatim (the healthy-path
// body is byte-identical to a single-engine server's) — and proxies the
// per-paper endpoints to the backends. It holds no corpus state at all — it
// can boot instantly and restart freely.
//
// This file is the HTTP side: the handlers, the mapping of a failed call to a
// response, and the one function that touches a socket. Every decision about
// backends is the embedded policy's (policy.go), which knows no HTTP.
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
//     amplification during outages (n range calls — an R-range page makes
//     R — can add at most capacity + n·ratio retries and hedges);
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
// is bounded by shardTimeout — a dead or hung replica can delay a query,
// never hang it.
type Coordinator struct {
	*policy
	logger  *log.Logger
	handler http.Handler
	// cache mirrors the Server's /search body cache. Only exact (all-range)
	// responses are inserted; see errPartial.
	cache *cache.Cache[[]byte]

	// backends is the flat list of replica base URLs, range after range.
	backends []string
	client   *http.Client
	prober   *resilience.Prober // nil = probing disabled

	// retryAfter is the Retry-After hint on backend-unavailable 503s: the
	// longer of the per-attempt timeout and the breaker cool-down — the
	// soonest a retry could plausibly see a recovered backend.
	retryAfter string
}

// NewCoordinator assembles a coordinator over the given shard range URLs.
// Each element serves one contiguous paper range and may list several
// replica base URLs separated by "|" (e.g.
// "http://127.0.0.1:8101|http://127.0.0.1:8201"). The middleware stack is
// the single-engine server's (newFront). Close must be called to stop the
// health prober.
func NewCoordinator(urls []string, cfg Config, scfg ShardConfig) *Coordinator {
	return newCoordinator(urls, cfg, scfg, defaultTuning())
}

// newCoordinator is NewCoordinator under tuning tu.
func newCoordinator(urls []string, cfg Config, scfg ShardConfig, tu tuning) *Coordinator {
	if len(urls) == 0 {
		panic("server: NewCoordinator needs at least one shard URL")
	}
	c := &Coordinator{}
	var ranges [][]int
	for _, group := range urls {
		var members []int
		for _, u := range strings.Split(group, "|") {
			if u = strings.TrimSpace(strings.TrimRight(u, "/")); u != "" {
				members = append(members, len(c.backends))
				c.backends = append(c.backends, u)
			}
		}
		if len(members) == 0 {
			panic("server: NewCoordinator range with no replica URLs")
		}
		ranges = append(ranges, members)
	}
	// Every admitted query holds at most one connection per backend at a
	// time, so the admission cap is also the idle pool a backend needs for
	// connections to survive a burst. http.DefaultTransport keeps two.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = tu.maxInflight
	tr.MaxIdleConns = tu.maxInflight * len(c.backends)
	c.client = &http.Client{Transport: tr}
	c.assemble(ranges, cfg, scfg, tu, &httpTransport{client: c.client, backends: c.backends, timeout: tu.shardTimeout, maxBody: maxBackendBody})
	if tu.probeInterval > 0 {
		c.prober = resilience.NewProber(c.backends, tu.probeInterval, c.onProbe, c.client)
		c.healthy = c.prober.Healthy
	}
	return c
}

// assemble wires the policy over tr, the cache and the handler: everything of
// a coordinator that needs no socket.
func (c *Coordinator) assemble(ranges [][]int, cfg Config, scfg ShardConfig, tu tuning, tr transport) {
	c.policy = newPolicy(ranges, scfg, tu, tr)
	c.cache = cache.New[[]byte](cfg.cacheSize(), cacheTTL)
	c.retryAfter = retryAfterSecs(max(tu.shardTimeout, tu.breakerCooldown))

	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", c.handleSearch)
	mux.HandleFunc("GET /contexts", c.handleProxy)
	mux.HandleFunc("GET /papers/{id}", c.handleProxy)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.handler, c.logger = newFront(cfg, tu, mux)
}

// newPolicy is a policy over tr with every breaker closed and a full budget.
func newPolicy(ranges [][]int, scfg ShardConfig, tu tuning, tr transport) *policy {
	p := &policy{scfg: scfg, tu: tu, tr: tr, ranges: ranges, replicaRR: make([]atomic.Uint64, len(ranges))}
	for ri, reps := range ranges {
		for range reps {
			p.all = append(p.all, len(p.all))
			p.rangeOf = append(p.rangeOf, ri)
		}
	}
	p.metrics = shard.NewMetricsReplicated(len(ranges), p.rangeOf)
	p.budget = resilience.NewBudget(tu.retryBudget, tu.retryRatio)
	for range p.all {
		p.breakers = append(p.breakers, resilience.NewBreaker(tu.breakerThreshold, tu.breakerCooldown, tr.now, p.metrics.ObserveBreakerOpen))
	}
	return p
}

// Close stops the health prober's goroutines (safe to call on a
// coordinator without one) and closes the idle backend connections.
func (c *Coordinator) Close() {
	if c.prober != nil {
		c.prober.Close()
	}
	c.client.CloseIdleConnections()
}

// NumShards returns the number of shard ranges.
func (c *Coordinator) NumShards() int { return len(c.ranges) }

// NumBackends returns the number of physical replicas across all ranges.
func (c *Coordinator) NumBackends() int { return len(c.backends) }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

// shardCallError is one failed backend call. shard is the range index;
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

// clientError reports a 4xx: deterministic across backends (same request,
// same analyzer), so it is an answer about the request from a live backend —
// final, relayed, never retried or degraded around.
func (e *shardCallError) clientError() bool { return e.status >= 400 && e.status < 500 }

// errAllReplicasDown marks a call that found no admissible replica: every
// breaker it could try is open and still cooling down.
var errAllReplicasDown = errors.New("all replicas unavailable (circuit open)")

// errPartial smuggles a degraded response body through cache.Do, which
// never caches loads that return an error — exactly the behaviour partial
// pages need (a recovered shard must not be masked by a cached degraded
// page).
type errPartial struct{ body []byte }

func (*errPartial) Error() string { return "partial response" }

// rangePage is one range's answer to /shard/search: its ranked, unrendered
// rows or, to a finishing call, the finished /search body and its row count.
type rangePage struct {
	rows []ShardRow
	body []byte
	n    int
}

// decodeRangePage takes a 200 from /shard/search for what was asked: ranked
// rows without unknown fields or, of a finishing call, a page under
// pageRowsHeader. Anything else is an error and no page.
func decodeRangePage(rep reply, finish bool) (rangePage, error) {
	if finish {
		n, err := strconv.Atoi(rep.pageRows)
		if err != nil || n < 0 {
			return rangePage{}, fmt.Errorf("finished page with %s %q", pageRowsHeader, rep.pageRows)
		}
		return rangePage{body: rep.body, n: n}, nil
	}
	var resp ShardSearchResponse
	dec := json.NewDecoder(bytes.NewReader(rep.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return rangePage{}, err
	}
	if i := misranked(resp.Results); i >= 0 {
		return rangePage{}, fmt.Errorf("row %d (doc %d) does not rank after row %d (doc %d)", i, resp.Results[i].Doc, i-1, resp.Results[i-1].Doc)
	}
	return rangePage{rows: resp.Results}, nil
}

func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	p, ok := parseSearchParams(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	body, err := c.cache.Do(searchCacheKey(p.q, p.boolean, p.opts), func() ([]byte, error) {
		return c.searchPage(ctx, p)
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

// writeShardErr maps a failed scatter-gather to a response: relayed client
// errors keep the backend's status and body, an abandoned request gets none,
// everything else (timeouts, dead backends, 5xx, tripped breakers) is a 503
// with a Retry-After derived from the shard timeout and breaker cool-down —
// the coordinator is healthy, the backend is not.
func (c *Coordinator) writeShardErr(w http.ResponseWriter, r *http.Request, err error) {
	var sce *shardCallError
	switch {
	case !errors.As(err, &sce):
		if !writeCtxErr(w, r, c.logger, c.tu.queryTimeout, err) {
			writeErr(w, http.StatusBadGateway, "shard backend error: %v", err)
		}
	case sce.clientError() && json.Valid(sce.body):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(sce.status)
		_, _ = w.Write(sce.body)
	case errors.Is(sce.err, context.Canceled):
		writeCtxErr(w, r, c.logger, c.tu.queryTimeout, sce.err)
	default:
		c.logger.Printf("shard failure on %s %s: %v", r.Method, r.URL.Path, sce)
		w.Header().Set("Retry-After", c.retryAfter)
		writeErr(w, http.StatusServiceUnavailable, "shard %d unavailable", sce.shard)
	}
}

// handleProxy forwards a single-backend request and relays the response
// verbatim, failing over across every backend (policy.proxyFetch).
func (c *Coordinator) handleProxy(w http.ResponseWriter, r *http.Request) {
	rep, cerr := c.proxyFetch(r.Context(), r.URL.RequestURI())
	if cerr != nil {
		c.writeShardErr(w, r, cerr)
		return
	}
	if rep.contentType != "" {
		w.Header().Set("Content-Type", rep.contentType)
	}
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body)
}

// maxBackendBody caps what the coordinator reads of one backend answer.
const maxBackendBody = 64 << 20

// httpTransport is the policy's transport over real backends and real time.
type httpTransport struct {
	client   *http.Client
	backends []string      // base URLs by backend index
	timeout  time.Duration // per-attempt deadline (0 = the caller's only)
	maxBody  int           // the most of one answer read
}

func (t *httpTransport) now() time.Time { return time.Now() }

func (t *httpTransport) after(d time.Duration) (<-chan time.Time, func() bool) {
	timer := time.NewTimer(d)
	return timer.C, timer.Stop
}

// exchange is the one function that touches a socket: method and payload to
// backend g's uri under a fresh per-attempt deadline, the answer read whole
// (one byte past the cap is an error, not a body cut short). net/http wraps a
// context's error wherever the exchange was when it ended; it is surfaced
// bare, for the timeout-vs-error split of the replica counters.
func (t *httpTransport) exchange(ctx context.Context, g int, method, uri string, payload []byte) (reply, error) {
	if t.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.timeout)
		defer cancel()
	}
	var rd io.Reader // a nil *bytes.Reader would be a body
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.backends[g]+uri, rd)
	if err != nil {
		return reply{}, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	var body []byte
	if err == nil {
		defer resp.Body.Close()
		body, err = io.ReadAll(io.LimitReader(resp.Body, int64(t.maxBody)+1))
		if err == nil && len(body) > t.maxBody {
			err = fmt.Errorf("backend answer exceeds %d bytes", t.maxBody)
		}
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
		return reply{}, err
	}
	return reply{
		status:      resp.StatusCode,
		body:        body,
		pageRows:    resp.Header.Get(pageRowsHeader),
		contentType: resp.Header.Get("Content-Type"),
	}, nil
}

// handleStats serves corpus statistics from any backend (they are global
// on every one) overlaid with the coordinator's own cache, fan-out and
// resilience counters. /stats is exactly the endpoint an operator hits
// during an outage, so it fails over across every backend and decorates
// the replica counters with live breaker and health state.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	rep, cerr := c.proxyFetch(r.Context(), "/stats")
	if cerr == nil && rep.status != http.StatusOK {
		cerr = &shardCallError{status: rep.status, body: rep.body}
	}
	if cerr != nil {
		c.writeShardErr(w, r, cerr)
		return
	}
	var resp StatsResponse
	if err := json.Unmarshal(rep.body, &resp); err != nil {
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
		snap.Replicas[g].Healthy = c.healthy == nil || c.healthy(g)
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
		rep, err := c.tr.exchange(r.Context(), g, http.MethodGet, "/readyz", nil)
		up[g] = err == nil && rep.status == http.StatusOK
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
