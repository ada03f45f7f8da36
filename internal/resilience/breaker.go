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

// Breaker defaults.
const (
	DefaultFailureThreshold = 5
	DefaultCooldown         = 2 * time.Second
)

// BreakerConfig tunes a Breaker. Zero values take the defaults above.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips a
	// closed breaker open.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects before admitting a
	// half-open probe. It also bounds how long a half-open probe may stay
	// unresolved before another probe is admitted (a probe whose outcome
	// is never recorded — e.g. its request was abandoned — must not wedge
	// the breaker).
	Cooldown time.Duration
	// Now is the clock (nil = time.Now); injectable for deterministic
	// tests.
	Now func() time.Time
	// OnOpen, when set, is called after each trip to Open (from Closed or
	// HalfOpen) — the coordinator counts breaker opens with it. Called
	// without the breaker lock held.
	OnOpen func()
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = DefaultFailureThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a consecutive-failure circuit breaker. All methods are safe
// for concurrent use.
//
// Closed → Open after FailureThreshold consecutive failures; Open →
// HalfOpen once Cooldown has elapsed (the transition happens inside Allow,
// which then admits exactly one probe); HalfOpen → Closed on a recorded
// success, HalfOpen → Open on a recorded failure.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while Closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	probeAt  time.Time // when that probe was admitted
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may proceed. In the Open state it
// transitions to HalfOpen once the cool-down has elapsed and admits the
// caller as the probe; while a probe is unresolved, other callers are
// rejected (until the probe itself times out after another cool-down).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		b.probeAt = now
		return true
	default: // HalfOpen
		if b.probing && now.Sub(b.probeAt) < b.cfg.Cooldown {
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
			if b.failures >= b.cfg.FailureThreshold {
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
	onOpen := b.cfg.OnOpen
	b.mu.Unlock()
	if tripped && onOpen != nil {
		onOpen()
	}
}

// trip moves to Open. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Now()
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
