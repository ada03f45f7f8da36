package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ctxsearch"
	"ctxsearch/internal/par"
	"ctxsearch/internal/resilience"
	"ctxsearch/internal/shard"
)

// transport is all the failure policy sees of the world: one exchange with
// one backend, and a clock. The coordinator's is HTTP and time (httpTransport);
// the simulator's (policy_sim_test.go) is a scripted schedule and a clock the
// test advances, so every decision below runs without a socket or a sleep.
type transport interface {
	// exchange sends payload (nil = none) to backend g and returns its whole
	// answer, whatever the status. The per-attempt deadline is the transport's;
	// its expiry, like ctx ending, comes back as that context's error.
	exchange(ctx context.Context, g int, method, uri string, payload []byte) (reply, error)
	now() time.Time
	// after is time.NewTimer: a channel that fires once d has passed, and
	// the timer's Stop.
	after(d time.Duration) (fired <-chan time.Time, stop func() bool)
}

// reply is one backend answer: status, body and the two header values the
// policy reads.
type reply struct {
	status      int
	body        []byte
	pageRows    string // X-Page-Rows
	contentType string
}

// policy decides which replica is asked, what its answer says about it, when
// a call is retried, hedged or given up, and which range finishes the page —
// each decision once, for /search and the proxied endpoints alike.
type policy struct {
	scfg    ShardConfig
	tr      transport
	metrics *shard.Metrics

	// ranges[ri] lists the backend indices replicating range ri; rangeOf
	// inverts that; all lists every backend.
	ranges  [][]int
	rangeOf []int
	all     []int

	breakers []*resilience.Breaker
	budget   *resilience.Budget // nil = unbounded (RetryBudget < 0)
	// healthy is the prober's latest verdict (nil = every backend is).
	healthy func(g int) bool

	// rr rotates the backend a proxied request starts at and the range that
	// finishes each search; replicaRR the preferred replica of each range.
	rr        atomic.Uint64
	replicaRR []atomic.Uint64
}

// onProbe feeds one health-probe verdict into the backend's breaker. A failed
// probe always counts: probes alone trip a dead replica's breaker, before any
// query pays for the discovery. A successful one counts only while the
// breaker is not closed — closed, it must not reset the failure count of a
// backend whose /healthz answers while /shard/search fails — and past the
// cool-down it is itself the half-open probe, so recovery costs no user query.
func (p *policy) onProbe(g int, ok bool) {
	b := p.breakers[g]
	if !ok {
		b.Record(false)
	} else if b.State() != resilience.Closed && b.Allow() {
		b.Record(true)
	}
}

// budgetWithdraw takes one retry token; with no budget it is always granted.
func (p *policy) budgetWithdraw() bool { return p.budget == nil || p.budget.Withdraw() }

// inOrder visits members from rotation position start, the ones the prober
// holds healthy first, then the rest (when it has marked everything down,
// trying is still better than refusing — probes can be stale), until visit
// reports true. Each member is visited at most once, so a visit may consult
// its breaker: Allow has side effects (it admits half-open probes).
func (p *policy) inOrder(members []int, start uint64, visit func(g int) bool) bool {
	n := len(members)
	first := int(start % uint64(n))
	for _, want := range [2]bool{true, false} {
		for k := 0; k < n; k++ {
			g := members[(first+k)%n]
			if (p.healthy == nil || p.healthy(g)) == want && visit(g) {
				return true
			}
		}
	}
	return false
}

// pickReplica selects the replica of range ri for the next attempt: the
// first in order that has not been tried and whose breaker admits it.
// Selection rotates per range so load spreads across replicas; if nothing is
// left the range is reported down (false).
func (p *policy) pickReplica(ri int, tried map[int]bool) (picked int, ok bool) {
	ok = p.inOrder(p.ranges[ri], p.replicaRR[ri].Add(1)-1, func(g int) bool {
		picked = g
		return !tried[g] && p.breakers[g].Allow()
	})
	return picked, ok
}

// exchange is one attempt against backend g. Anything but a 200 is an error
// carrying what arrived.
func (p *policy) exchange(ctx context.Context, g int, method, uri string, payload []byte) (reply, *shardCallError) {
	rep, err := p.tr.exchange(ctx, g, method, uri, payload)
	switch {
	case err != nil:
		return reply{}, &shardCallError{shard: p.rangeOf[g], err: err}
	case rep.status != 200:
		return rep, &shardCallError{shard: p.rangeOf[g], status: rep.status, body: rep.body}
	}
	return rep, nil
}

// record folds one attempt against backend g into its breaker and replica
// counters — the one verdict. A cancelled attempt (hedge loser, abandoned
// client) counts as a request and is never recorded into the breaker: a
// cancellation says nothing about the backend. An answer or a client error
// means the backend is alive; anything else is its failure.
func (p *policy) record(ctx context.Context, g int, cerr *shardCallError) {
	switch {
	case cerr != nil && errors.Is(ctx.Err(), context.Canceled):
		p.metrics.ObserveReplica(g, context.Canceled)
	case cerr == nil || cerr.clientError():
		p.metrics.ObserveReplica(g, nil)
		p.breakers[g].Record(true)
	default:
		p.metrics.ObserveReplica(g, cerr)
		p.breakers[g].Record(false)
	}
}

// rangeCall is one range's /shard/search request: the marshalled payload and
// whether it carries "finish".
type rangeCall struct {
	payload []byte
	finish  bool
}

// callReplica runs one POST /shard/search attempt against backend g. A 200
// in any other shape than the one asked for (decodeRangePage) comes from a
// backend of another version and is that backend's failure, never relayed.
func (p *policy) callReplica(ctx context.Context, g int, call rangeCall) (rangePage, *shardCallError) {
	t0 := p.tr.now()
	var page rangePage
	rep, cerr := p.exchange(ctx, g, "POST", "/shard/search", call.payload)
	if cerr == nil {
		var err error
		if page, err = decodeRangePage(rep, call.finish); err != nil {
			cerr = &shardCallError{shard: p.rangeOf[g], err: fmt.Errorf("bad shard response: %w", err)}
		}
	}
	if call.finish {
		p.metrics.ObserveRender(page.n, p.tr.now().Sub(t0))
	}
	p.record(ctx, g, cerr)
	return page, cerr
}

// callAttempt runs one attempt for range ri, marking every backend it touches
// in tried: one replica call or, with hedging, a race — if the primary has not
// answered within HedgeAfter and a fresh replica and the budget allow, a second
// replica is asked too; the first success wins and the loser is cancelled.
func (p *policy) callAttempt(ctx context.Context, ri int, tried map[int]bool, call rangeCall) (rangePage, *shardCallError) {
	g, ok := p.pickReplica(ri, tried)
	if !ok && len(tried) > 0 {
		// Every replica has been tried this call: a retry may revisit them
		// (with one replica per range, retrying means retrying it).
		clear(tried)
		g, ok = p.pickReplica(ri, tried)
	}
	if !ok {
		return rangePage{}, &shardCallError{shard: ri, err: errAllReplicasDown}
	}
	tried[g] = true
	if p.scfg.HedgeAfter <= 0 || len(p.ranges[ri]) < 2 {
		return p.callReplica(ctx, g, call)
	}

	type outcome struct {
		page   rangePage
		err    *shardCallError
		hedged bool
	}
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	ch := make(chan outcome, 2)
	race := func(g int, hedged bool) {
		page, err := p.callReplica(actx, g, call)
		ch <- outcome{page, err, hedged}
	}
	// HedgeAfter counts from the decision to send: the timer exists before
	// the primary's exchange can start.
	hedge, stop := p.tr.after(p.scfg.HedgeAfter)
	defer stop()
	go race(g, false)
	hedged := false
	var lastErr *shardCallError
	for pending := 1; pending > 0; {
		select {
		case o := <-ch:
			// An answer ends the race, and so does a client error: it is
			// final whichever of the pair it came from.
			if pending--; o.err != nil && !o.err.clientError() {
				lastErr = o.err
				continue
			}
			if hedged {
				p.metrics.ObserveHedge(o.hedged && o.err == nil)
			}
			return o.page, o.err
		case <-ctx.Done():
			return rangePage{}, &shardCallError{shard: ri, err: ctx.Err()}
		case <-hedge:
			// The primary is slow; without a fresh replica or budget, keep
			// waiting on it alone.
			hedge = nil
			if g2, ok := p.pickReplica(ri, tried); ok && p.budgetWithdraw() {
				tried[g2], hedged = true, true
				pending++
				go race(g2, true)
			}
		}
	}
	if hedged {
		p.metrics.ObserveHedge(false)
	}
	return rangePage{}, lastErr
}

// callRange resolves range ri and counts the outcome: a first attempt, which
// deposits into the retry budget, plus up to MaxRetries budget-covered
// retries after an exponential backoff, each preferring a replica not yet
// tried. A client error or the request's own context ending is final at once
// — retrying them is waste.
func (p *policy) callRange(ctx context.Context, ri int, call rangeCall) (rangePage, *shardCallError) {
	if p.budget != nil {
		p.budget.Deposit()
	}
	tried := make(map[int]bool)
	for attempt := 0; ; attempt++ {
		page, cerr := p.callAttempt(ctx, ri, tried, call)
		if cerr == nil {
			if attempt > 0 {
				p.metrics.ObserveFailover()
			}
			p.metrics.ObserveShard(ri, nil)
			return page, nil
		}
		if !cerr.clientError() && ctx.Err() == nil && attempt < orDefault(p.scfg.MaxRetries, DefaultMaxRetries) {
			if p.budgetWithdraw() {
				p.metrics.ObserveRetry()
				backoff, stop := p.tr.after(p.scfg.Backoff.Delay(attempt+1, nil))
				select {
				case <-backoff:
					continue
				case <-ctx.Done():
					stop()
					cerr = &shardCallError{shard: ri, err: ctx.Err()}
				}
			} else {
				p.metrics.ObserveRetryDenied()
			}
		}
		p.metrics.ObserveShard(ri, cerr)
		return rangePage{}, cerr
	}
}

// queryError picks the error that fails a query from its range errors: a
// client error first, else, unless the page may degrade, the first failed
// range's.
func queryError(errs []*shardCallError, degrade bool) *shardCallError {
	var first *shardCallError
	for _, e := range errs {
		switch {
		case e == nil:
		case e.clientError():
			return e
		case first == nil && !degrade:
			first = e
		}
	}
	return first
}

// searchPage fans one query out to every shard range but one, merges their
// unrendered rows and has the remaining range finish the page: search its
// own papers, merge, render. The finisher rotates, so rendering spreads over
// the ranges, and its call is a range call like any other. The returned
// error is a *shardCallError (request failed) or *errPartial (degraded body
// that must bypass the cache).
func (p *policy) searchPage(ctx context.Context, sp searchParams) ([]byte, error) {
	// The scatter transformation: every range returns its own top offset+limit
	// rows (limit >= 1, by parseSearchParams); the offset is applied last.
	req := ShardSearchRequest{
		Q:         sp.q,
		Boolean:   sp.boolean,
		Limit:     shard.ShardOptions(sp.opts).Limit,
		Threshold: sp.opts.Threshold,
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	n := len(p.ranges)
	first := int((p.rr.Add(1) - 1) % uint64(n))
	got := make([]rangePage, n)
	errs := make([]*shardCallError, n)
	call := func(ri int, rc rangeCall) time.Duration {
		t0 := p.tr.now()
		got[ri], errs[ri] = p.callRange(ctx, ri, rc)
		return p.tr.now().Sub(t0)
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
		if e := queryError(errs, p.scfg.AllowPartial); e != nil {
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
		t0 := p.tr.now()
		rows := shard.MergePages(pages, ctxsearch.SearchOptions{Limit: req.Limit})
		merge += p.tr.now().Sub(t0)
		req.Finish = &ShardFinish{Offset: sp.opts.Offset, Limit: sp.opts.Limit, Partial: partial, Rows: rows}
		if payload, err = json.Marshal(req); err != nil {
			return nil, err
		}
		if call(ri, rangeCall{payload: payload, finish: true}); errs[ri] != nil {
			continue
		}
		// The body is relayed as it arrived: never decoded or re-marshalled.
		p.metrics.ObserveSearch(maxShard.Load(), merge)
		p.metrics.ObserveServed(got[ri].n)
		if partial {
			p.metrics.ObservePartial()
			return nil, &errPartial{body: got[ri].body}
		}
		return got[ri].body, nil
	}
	return nil, queryError(errs, false)
}

// proxyFetch runs one GET against the backends in order, past dead, erroring
// or breaker-rejected ones — each holds the whole corpus-global state, so any
// one answers /contexts, /papers/{id} and /stats exactly. A 200 or a client
// error is final (a 404 paper is a 404 everywhere) and comes back as the
// reply; anything else moves on, unless the request itself is over. Attempts
// are recorded like any other; the failover is bounded by the backend count
// and draws nothing from the retry budget.
func (p *policy) proxyFetch(ctx context.Context, uri string) (rep reply, cerr *shardCallError) {
	cerr = &shardCallError{err: errAllReplicasDown}
	p.inOrder(p.all, p.rr.Add(1)-1, func(g int) bool {
		if !p.breakers[g].Allow() {
			return false
		}
		rep, cerr = p.exchange(ctx, g, "GET", uri, nil)
		p.record(ctx, g, cerr)
		if cerr == nil || cerr.clientError() {
			cerr = nil
		}
		return cerr == nil || ctx.Err() != nil
	})
	return rep, cerr
}
