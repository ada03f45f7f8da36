package resilience

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var opens atomic.Int64
	b := NewBreaker(3, time.Second, clk.now, func() { opens.Add(1) })

	// Closed: passes, and a success resets the consecutive count.
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
	}
	b.Record(false)
	b.Record(false)
	b.Record(true) // resets
	b.Record(false)
	b.Record(false)
	if b.State() != Closed {
		t.Fatalf("2 consecutive failures after a reset tripped the breaker (state %v)", b.State())
	}

	// Third consecutive failure trips it.
	b.Record(false)
	if b.State() != Open || opens.Load() != 1 {
		t.Fatalf("state %v opens %d after threshold, want open/1", b.State(), opens.Load())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cool-down")
	}

	// Cool-down elapses: exactly one half-open probe is admitted.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not admit a probe after cool-down")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller admitted while a probe is unresolved")
	}

	// Failed probe re-opens (and re-arms the cool-down).
	b.Record(false)
	if b.State() != Open || opens.Load() != 2 {
		t.Fatalf("failed probe: state %v opens %d, want open/2", b.State(), opens.Load())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request immediately")
	}

	// Successful probe closes.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after second cool-down")
	}
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("successful probe left state %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
	if got := opens.Load(); got != 2 {
		t.Fatalf("OnOpen fired %d times, want 2", got)
	}
}

// TestBreakerLostProbeSelfHeals: a half-open probe whose outcome is never
// recorded (abandoned request) must not wedge the breaker forever.
func TestBreakerLostProbeSelfHeals(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(1, time.Second, clk.now, nil)
	b.Record(false) // trip
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after cool-down")
	}
	// The probe is never recorded. Before another cool-down: rejected.
	if b.Allow() {
		t.Fatal("unresolved probe did not gate other callers")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker wedged by a lost probe")
	}
}

// TestBreakerIgnoresLateResults: outcomes recorded while Open (requests
// admitted before the trip) change nothing.
func TestBreakerIgnoresLateResults(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var opens atomic.Int64
	b := NewBreaker(1, time.Minute, clk.now, func() { opens.Add(1) })
	b.Record(false)
	b.Record(true) // late success from a request admitted pre-trip
	if b.State() != Open {
		t.Fatalf("late success closed an open breaker (state %v)", b.State())
	}
	if got := opens.Load(); got != 1 {
		t.Fatalf("OnOpen fired %d times, want 1", got)
	}
}

func TestBudgetBound(t *testing.T) {
	b := NewBudget(3, 0.5)
	// Starts full: exactly Capacity retries available with no deposits.
	granted := 0
	for i := 0; i < 10; i++ {
		if b.Withdraw() {
			granted++
		}
	}
	if granted != 3 {
		t.Fatalf("empty-traffic budget granted %d retries, want 3", granted)
	}

	// Two deposits bank one more token.
	b.Deposit()
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("deposited token not withdrawable")
	}
	if b.Withdraw() {
		t.Fatal("withdrew more than deposited")
	}

	// The bank never exceeds capacity.
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	granted = 0
	for b.Withdraw() {
		granted++
	}
	if granted != 3 {
		t.Fatalf("100 deposits banked %d retries, want capacity 3", granted)
	}

	// The storm bound: R requests grant at most Capacity + R·Ratio retries.
	b2 := NewBudget(3, 0.5)
	const requests = 40
	retries := 0
	for i := 0; i < requests; i++ {
		b2.Deposit()
		for b2.Withdraw() { // storm: retry as hard as allowed
			retries++
		}
	}
	if max := 3 + requests/2; retries > max {
		t.Fatalf("storm granted %d retries, budget bound is %d", retries, max)
	}
}

func TestBackoffDelay(t *testing.T) {
	want := []time.Duration{0, 10, 20, 40, 80, 80, 80}
	for n, w := range want {
		if got := Backoff(n, 10*time.Millisecond, 80*time.Millisecond, 0, nil); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", n, got, w*time.Millisecond)
		}
	}
	// Jitter shaves off at most the jitter fraction, deterministically
	// under an injected source, and never more than the delay.
	jittered := func(attempt int, rnd func() float64) time.Duration {
		return Backoff(attempt, 100*time.Millisecond, time.Second, 0.5, rnd)
	}
	if got := jittered(1, func() float64 { return 0 }); got != 100*time.Millisecond {
		t.Fatalf("zero jitter sample = %v, want 100ms", got)
	}
	if got := jittered(1, func() float64 { return 1 }); got != 50*time.Millisecond {
		t.Fatalf("full jitter sample = %v, want 50ms", got)
	}
	for n := 1; n < 20; n++ {
		if d := jittered(n, nil); d < 50*time.Millisecond || d > time.Second {
			t.Fatalf("Backoff(%d) = %v out of [50ms, 1s]", n, d)
		}
	}
}

func TestProber(t *testing.T) {
	var up atomic.Bool
	up.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s, want /healthz", r.URL.Path)
		}
		if !up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	type probe struct {
		i  int
		ok bool
	}
	var mu sync.Mutex
	var seen []probe
	// The ticker never fires in-test; probe drives it.
	p := NewProber([]string{ts.URL}, time.Hour, func(i int, ok bool) {
		mu.Lock()
		seen = append(seen, probe{i, ok})
		mu.Unlock()
	}, nil)
	defer p.Close()

	if !p.Healthy(0) {
		t.Fatal("backend not optimistically healthy before the first probe")
	}
	p.probe(0)
	if !p.Healthy(0) {
		t.Fatal("healthy backend probed unhealthy")
	}
	up.Store(false)
	p.probe(0)
	if p.Healthy(0) {
		t.Fatal("503 backend probed healthy")
	}
	up.Store(true)
	p.probe(0)
	if !p.Healthy(0) {
		t.Fatal("recovered backend probed unhealthy")
	}

	mu.Lock()
	defer mu.Unlock()
	wantOK := []bool{true, false, true}
	if len(seen) != len(wantOK) {
		t.Fatalf("OnProbe fired %d times, want %d", len(seen), len(wantOK))
	}
	for i, pr := range seen {
		if pr.i != 0 || pr.ok != wantOK[i] {
			t.Fatalf("probe %d = %+v, want {0 %v}", i, pr, wantOK[i])
		}
	}
}

// TestProberDeadBackend: a connection-refused backend flips unhealthy.
func TestProberDeadBackend(t *testing.T) {
	ts := httptest.NewServer(http.NewServeMux())
	url := ts.URL
	ts.Close()
	p := NewProber([]string{url}, time.Hour, nil, nil)
	defer p.Close()
	p.probe(0)
	if p.Healthy(0) {
		t.Fatal("dead backend probed healthy")
	}
}

// TestProberBackground: the goroutines actually probe on the interval and
// stop on Close.
func TestProberBackground(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	p := NewProber([]string{ts.URL}, 10*time.Millisecond, nil, nil)
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hits.Load() < 3 {
		t.Fatal("background prober never probed")
	}
	p.Close()
	quiesced := hits.Load()
	time.Sleep(50 * time.Millisecond)
	if hits.Load() != quiesced {
		t.Fatal("prober kept probing after Close")
	}
}
