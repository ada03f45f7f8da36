package resilience

import "sync"

// Budget is a global retry token bucket: every first attempt deposits
// ratio tokens (capped at the capacity), every retry or hedge withdraws one
// whole token, and a withdrawal that cannot be covered is denied. This
// bounds retry amplification absolutely — during a total outage, R client
// requests can generate at most capacity + R·ratio retries on top of the
// R first attempts, so a retry storm cannot multiply overload. All methods
// are safe for concurrent use.
type Budget struct {
	capacity, ratio float64
	mu              sync.Mutex
	tokens          float64
}

// NewBudget returns a full bucket of capacity tokens, to which each first
// attempt deposits ratio — the steady-state retry fraction.
func NewBudget(capacity, ratio float64) *Budget {
	return &Budget{capacity: capacity, ratio: ratio, tokens: capacity}
}

// Deposit credits one first attempt's worth of retry allowance.
func (b *Budget) Deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.capacity {
		b.tokens = b.capacity
	}
	b.mu.Unlock()
}

// Withdraw takes one token for a retry or hedge, reporting whether the
// budget covered it. A denied withdrawal takes nothing.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
