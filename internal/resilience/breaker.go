// Package resilience provides the failure-handling primitives the
// replicated scatter-gather coordinator composes: a per-backend circuit
// breaker, a global retry token budget, bounded exponential backoff with
// jitter, and an active health prober.
//
// The pieces are deliberately independent — the breaker knows nothing
// about HTTP, the budget nothing about backends — so each is testable in
// isolation with an injected clock or random source, and the coordinator
// wires them together: the prober feeds breaker state, the breaker gates
// replica selection, the budget bounds how much extra load retries and
// hedges may generate, and the backoff spaces the retries out.
package resilience

import (
	"sync"
	"time"
)

// State is a circuit breaker state.
type State int32

const (
	// Closed passes requests through, counting consecutive failures.
	Closed State = iota
	// Open rejects requests until the cool-down elapses.
	Open
	// HalfOpen admits one probe request; its outcome closes or re-opens
	// the breaker.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a consecutive-failure circuit breaker. All methods are safe
// for concurrent use.
//
// Closed → Open after threshold consecutive failures; Open → HalfOpen once
// the cool-down has elapsed (the transition happens inside Allow, which then
// admits exactly one probe); HalfOpen → Closed on a recorded success,
// HalfOpen → Open on a recorded failure.
type Breaker struct {
	threshold int
	// cooldown is how long an open breaker rejects before admitting a
	// half-open probe. It also bounds how long a half-open probe may stay
	// unresolved before another probe is admitted (a probe whose outcome is
	// never recorded — e.g. its request was abandoned — must not wedge the
	// breaker).
	cooldown time.Duration
	now      func() time.Time
	onOpen   func()

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while Closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	probeAt  time.Time // when that probe was admitted
}

// NewBreaker returns a closed breaker that trips after threshold
// consecutive failures and admits a half-open probe once cooldown has
// passed on the clock now. onOpen, when non-nil, is called after each trip
// to Open (from Closed or HalfOpen), without the breaker lock held — the
// coordinator counts breaker opens with it.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time, onOpen func()) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now, onOpen: onOpen}
}

// Allow reports whether a request may proceed. In the Open state it
// transitions to HalfOpen once the cool-down has elapsed and admits the
// caller as the probe; while a probe is unresolved, other callers are
// rejected (until the probe itself times out after another cool-down).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		b.probeAt = now
		return true
	default: // HalfOpen
		if b.probing && now.Sub(b.probeAt) < b.cooldown {
			return false
		}
		b.probing = true
		b.probeAt = now
		return true
	}
}

// Record folds one request outcome in. Outcomes that arrive while the
// breaker is Open (late results of requests admitted before the trip) are
// ignored. Callers should not record cancelled requests — a cancellation
// says nothing about the backend.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	tripped := false
	switch b.state {
	case Closed:
		if ok {
			b.failures = 0
		} else {
			b.failures++
			if b.failures >= b.threshold {
				b.trip()
				tripped = true
			}
		}
	case HalfOpen:
		b.probing = false
		if ok {
			b.state = Closed
			b.failures = 0
		} else {
			b.trip()
			tripped = true
		}
	case Open:
		// Late result: ignore.
	}
	b.mu.Unlock()
	if tripped && b.onOpen != nil {
		b.onOpen()
	}
}

// trip moves to Open. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
}

// State returns the current state (transitions only happen inside Allow
// and Record, so an Open breaker past its cool-down still reports Open
// until someone asks to proceed).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
