package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Metrics holds a coordinator's fan-out counters: per-shard request,
// error and timeout counts plus the scatter-gather latency split (the
// slowest shard vs the merge itself, as running totals so averages are
// derivable). All methods are safe for concurrent use.
type Metrics struct {
	searches      atomic.Uint64
	partial       atomic.Uint64
	maxShardNanos atomic.Int64
	mergeNanos    atomic.Int64
	shards        []shardCounters

	// Page finishing.
	renderCalls  atomic.Uint64
	renderNanos  atomic.Int64
	rowsRendered atomic.Uint64
	rowsServed   atomic.Uint64

	// Resilience counters.
	retries       atomic.Uint64
	retriesDenied atomic.Uint64
	hedges        atomic.Uint64
	hedgesWon     atomic.Uint64
	breakerOpens  atomic.Uint64
	failovers     atomic.Uint64
	// replicas tracks each physical backend; rangeOf maps a backend to
	// the shard range it replicates.
	replicas []shardCounters
	rangeOf  []int
}

type shardCounters struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	timeouts atomic.Uint64
}

// NewMetricsReplicated returns counters for a replicated topology:
// nRanges shard ranges served by len(rangeOf) physical backends, where
// rangeOf[g] is the range backend g replicates. Range-level counters
// record the outcome of each logical range call (after retries and
// failover); replica-level counters record every physical attempt.
func NewMetricsReplicated(nRanges int, rangeOf []int) *Metrics {
	return &Metrics{
		shards:   make([]shardCounters, nRanges),
		replicas: make([]shardCounters, len(rangeOf)),
		rangeOf:  append([]int(nil), rangeOf...),
	}
}

// observe counts one request and its outcome. A cancelled request (hedge
// loser, abandoned client) counts as a request but says nothing about where
// it went, so it is neither an error nor a timeout; a deadline expiry counts
// as a timeout, any other failure as an error.
func (c *shardCounters) observe(err error) {
	c.requests.Add(1)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
	case errors.Is(err, context.DeadlineExceeded):
		c.timeouts.Add(1)
	default:
		c.errors.Add(1)
	}
}

// ObserveShard records one range call of range i and its outcome.
func (m *Metrics) ObserveShard(i int, err error) { m.shards[i].observe(err) }

// ObserveSearch records one completed scatter-gather — once per page: the
// slowest shard's latency and the coordinator-side merge time.
func (m *Metrics) ObserveSearch(maxShard, merge time.Duration) {
	m.searches.Add(1)
	m.maxShardNanos.Add(int64(maxShard))
	m.mergeNanos.Add(int64(merge))
}

// ObserveRender records one finishing /shard/search attempt: the rows of the
// page it returned (0 when it failed) and how long the hop took, whatever
// its outcome.
func (m *Metrics) ObserveRender(rows int, d time.Duration) {
	m.renderCalls.Add(1)
	m.renderNanos.Add(int64(d))
	m.rowsRendered.Add(uint64(rows))
}

// ObserveServed records the rows of one page built for a client. With
// ObserveRender it shows rendering amplification: rows_rendered equals
// rows_served unless two attempts finished the same page (a hedged pair).
func (m *Metrics) ObserveServed(rows int) { m.rowsServed.Add(uint64(rows)) }

// ObservePartial records a search answered with a flagged partial result
// (some shard failed and the coordinator's partial policy allowed it).
func (m *Metrics) ObservePartial() { m.partial.Add(1) }

// ObserveReplica records one physical request to backend g and its outcome.
func (m *Metrics) ObserveReplica(g int, err error) { m.replicas[g].observe(err) }

// ObserveRetry records one budget-approved retry attempt; ObserveRetryDenied
// one the retry budget refused.
func (m *Metrics) ObserveRetry()       { m.retries.Add(1) }
func (m *Metrics) ObserveRetryDenied() { m.retriesDenied.Add(1) }

// ObserveHedge records one fired hedge request and whether it won the race
// (its response was the first success).
func (m *Metrics) ObserveHedge(won bool) {
	m.hedges.Add(1)
	if won {
		m.hedgesWon.Add(1)
	}
}

// ObserveBreakerOpen records one circuit breaker tripping open.
func (m *Metrics) ObserveBreakerOpen() { m.breakerOpens.Add(1) }

// ObserveFailover records a range call that succeeded only after at least
// one replica attempt failed.
func (m *Metrics) ObserveFailover() { m.failovers.Add(1) }

// ShardStat is one shard's counters in a Snapshot.
type ShardStat struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
}

// ReplicaStat is one physical backend's counters in a Snapshot. URL,
// State and Healthy are filled in by the coordinator (the metrics layer
// tracks only the counters).
type ReplicaStat struct {
	Range    int    `json:"range"`
	URL      string `json:"url,omitempty"`
	State    string `json:"breaker,omitempty"`
	Healthy  bool   `json:"healthy"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
}

// Snapshot is a point-in-time copy of the coordinator counters, shaped
// for the /stats payload.
type Snapshot struct {
	// Searches counts completed scatter-gather merges; Partial the subset
	// served degraded.
	Searches uint64 `json:"searches"`
	Partial  uint64 `json:"partial"`
	// MaxShardMicrosTotal sums each search's slowest shard latency — for
	// the HTTP coordinator the slowest rows call, the finishing call is
	// under RenderMicrosTotal; MergeMicrosTotal sums the coordinator merge
	// time — divide either by Searches for the mean split. Shards counts
	// every range call, rows and finishing alike.
	MaxShardMicrosTotal uint64      `json:"max_shard_micros_total"`
	MergeMicrosTotal    uint64      `json:"merge_micros_total"`
	Shards              []ShardStat `json:"shards"`
	// Page finishing: finishing /shard/search attempts, their summed
	// duration, the rows of the pages they returned and the rows of the
	// pages served. Only the HTTP coordinator moves these; rows_rendered ==
	// rows_served means no row was rendered that no client asked for.
	RenderCalls       uint64 `json:"render_calls,omitempty"`
	RenderMicrosTotal uint64 `json:"render_micros_total,omitempty"`
	RowsRendered      uint64 `json:"rows_rendered,omitempty"`
	RowsServed        uint64 `json:"rows_served,omitempty"`
	// Resilience counters: budget-approved retries and budget-denied
	// ones, hedges fired / won, breaker trips, and range calls rescued by
	// failover. Only the replicated coordinator moves these.
	Retries       uint64 `json:"retries,omitempty"`
	RetriesDenied uint64 `json:"retries_denied,omitempty"`
	Hedges        uint64 `json:"hedges,omitempty"`
	HedgesWon     uint64 `json:"hedges_won,omitempty"`
	BreakerOpens  uint64 `json:"breaker_opens,omitempty"`
	Failovers     uint64 `json:"failovers,omitempty"`
	// Replicas is the per-backend view.
	Replicas []ReplicaStat `json:"replicas,omitempty"`
}

// Snapshot returns a copy of the current counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Searches:            m.searches.Load(),
		Partial:             m.partial.Load(),
		MaxShardMicrosTotal: uint64(m.maxShardNanos.Load() / 1e3),
		MergeMicrosTotal:    uint64(m.mergeNanos.Load() / 1e3),
		Shards:              make([]ShardStat, len(m.shards)),
		RenderCalls:         m.renderCalls.Load(),
		RenderMicrosTotal:   uint64(m.renderNanos.Load() / 1e3),
		RowsRendered:        m.rowsRendered.Load(),
		RowsServed:          m.rowsServed.Load(),
		Retries:             m.retries.Load(),
		RetriesDenied:       m.retriesDenied.Load(),
		Hedges:              m.hedges.Load(),
		HedgesWon:           m.hedgesWon.Load(),
		BreakerOpens:        m.breakerOpens.Load(),
		Failovers:           m.failovers.Load(),
	}
	for i := range m.shards {
		c := &m.shards[i]
		s.Shards[i] = ShardStat{
			Requests: c.requests.Load(),
			Errors:   c.errors.Load(),
			Timeouts: c.timeouts.Load(),
		}
	}
	s.Replicas = make([]ReplicaStat, len(m.replicas))
	for g := range m.replicas {
		c := &m.replicas[g]
		s.Replicas[g] = ReplicaStat{
			Range:    m.rangeOf[g],
			Requests: c.requests.Load(),
			Errors:   c.errors.Load(),
			Timeouts: c.timeouts.Load(),
		}
	}
	return s
}

// AtomicMaxDuration tracks the maximum of concurrently observed durations
// — the slowest-shard latency of one scatter-gather fan-out.
type AtomicMaxDuration struct{ v atomic.Int64 }

// Observe folds one duration into the running maximum.
func (a *AtomicMaxDuration) Observe(d time.Duration) {
	for {
		cur := a.v.Load()
		if int64(d) <= cur || a.v.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Load returns the maximum observed so far.
func (a *AtomicMaxDuration) Load() time.Duration { return time.Duration(a.v.Load()) }
