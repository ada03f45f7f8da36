package resilience

import (
	"math/rand"
	"time"
)

// Backoff returns the wait before retry attempt n (1-based; n <= 0 waits 0)
// of a bounded exponential backoff with proportional jitter: retry n waits
// base·2^(n-1), capped at ceiling, with up to a jitter fraction (in [0, 1])
// of the delay randomly shaved off so synchronized clients desynchronize
// instead of retrying in lockstep. rnd supplies the jitter sample in [0,1) —
// nil uses math/rand's global source; tests pass a fixed function for
// determinism.
func Backoff(attempt int, base, ceiling time.Duration, jitter float64, rnd func() float64) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	if jitter > 0 {
		if rnd == nil {
			rnd = rand.Float64
		}
		d -= time.Duration(rnd() * jitter * float64(d))
	}
	return d
}
