package resilience

import "sync"

// Budget defaults.
const (
	DefaultBudgetCapacity = 10.0
	DefaultBudgetRatio    = 0.1
)

// BudgetConfig tunes a Budget. Zero values take the defaults above.
type BudgetConfig struct {
	// Capacity is the maximum number of banked retry tokens (the bucket
	// starts full).
	Capacity float64
	// Ratio is how many tokens each first attempt deposits — the
	// steady-state retry fraction. With the default 0.1, retries can add
	// at most 10% to upstream traffic once the initial bank is spent.
	Ratio float64
}

func (c BudgetConfig) withDefaults() BudgetConfig {
	if c.Capacity <= 0 {
		c.Capacity = DefaultBudgetCapacity
	}
	if c.Ratio <= 0 {
		c.Ratio = DefaultBudgetRatio
	}
	return c
}

// Budget is a global retry token bucket: every first attempt deposits
// Ratio tokens (capped at Capacity), every retry or hedge withdraws one
// whole token, and a withdrawal that cannot be covered is denied. This
// bounds retry amplification absolutely — during a total outage, R client
// requests can generate at most Capacity + R·Ratio retries on top of the
// R first attempts, so a retry storm cannot multiply overload. All methods
// are safe for concurrent use.
type Budget struct {
	cfg    BudgetConfig
	mu     sync.Mutex
	tokens float64
}

// NewBudget returns a full bucket.
func NewBudget(cfg BudgetConfig) *Budget {
	cfg = cfg.withDefaults()
	return &Budget{cfg: cfg, tokens: cfg.Capacity}
}

// Deposit credits one first attempt's worth of retry allowance.
func (b *Budget) Deposit() {
	b.mu.Lock()
	b.tokens += b.cfg.Ratio
	if b.tokens > b.cfg.Capacity {
		b.tokens = b.cfg.Capacity
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
