// Fault-injection suite for the hardened serving path: simulated slow
// queries, deadline expiry, overload shedding, handler panics, readiness
// gating, and graceful shutdown draining — everything that must hold when
// production misbehaves.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

func faultServer(t *testing.T, tu tuning) (*Server, string) {
	t.Helper()
	sys, cs, scores, query := testState(t)
	return newPending(Config{}, tu).install(sys, cs, scores), query
}

// queryDeadline is the production tuning with the request deadline d (0 =
// none).
func queryDeadline(d time.Duration) tuning {
	tu := defaultTuning()
	tu.queryTimeout = d
	return tu
}

// TestTimeoutReturns503: a query slower than the deadline gets a 503 with a
// JSON error body and a Retry-After hint, within a small multiple of the
// deadline.
func TestTimeoutReturns503(t *testing.T) {
	s, query := faultServer(t, queryDeadline(50*time.Millisecond))
	s.testHook = func(ctx context.Context) { <-ctx.Done() } // stall until the deadline fires
	start := time.Now()
	rec := get(t, s, "/search?q="+urlQuery(query))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("slow search = %d, want 503: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("503 took %v, deadline was 50ms", elapsed)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("503 body not a JSON error: %q (%v)", rec.Body, err)
	}
}

// TestOverloadSheds429: with an admission cap of 1 and one request parked
// inside the handler, the next request is shed immediately with 429 and a
// Retry-After derived from the production deadline, and the parked request
// still completes normally.
func TestOverloadSheds429(t *testing.T) {
	tu := defaultTuning()
	tu.maxInflight = 1
	s, query := faultServer(t, tu)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHook = func(ctx context.Context) {
		once.Do(func() { close(entered) })
		<-release
	}
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q="+urlQuery(query), nil))
		firstDone <- rec
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never entered the handler")
	}
	shedStart := time.Now()
	rec := get(t, s, "/search?q="+urlQuery(query))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429: %s", rec.Code, rec.Body)
	}
	if got, want := rec.Header().Get("Retry-After"), retryAfterSecs(queryTimeout); got != want || want != "2" {
		t.Fatalf("Retry-After = %q, want %q (the %v deadline, rounded up)", got, want, queryTimeout)
	}
	if elapsed := time.Since(shedStart); elapsed > 200*time.Millisecond {
		t.Fatalf("shedding took %v — it must not queue", elapsed)
	}
	// Probes answer even while the API is saturated.
	if rec := get(t, s, "/healthz"); rec.Code != 200 {
		t.Fatalf("healthz under load = %d", rec.Code)
	}
	if rec := get(t, s, "/readyz"); rec.Code != 200 {
		t.Fatalf("readyz under load = %d", rec.Code)
	}
	close(release)
	select {
	case first := <-firstDone:
		if first.Code != 200 {
			t.Fatalf("parked request = %d: %s", first.Code, first.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never finished")
	}
}

// TestPanicDoesNotKillServer: a panicking handler yields a logged 500 over
// a real connection and the server keeps serving afterwards.
func TestPanicDoesNotKillServer(t *testing.T) {
	s, query := faultServer(t, defaultTuning())
	s.mux.HandleFunc("GET /panic", func(http.ResponseWriter, *http.Request) {
		panic("injected fault")
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatalf("panicking route: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic = %d, want 500: %s", resp.StatusCode, body)
	}
	var parsed map[string]string
	if err := json.Unmarshal(body, &parsed); err != nil || parsed["error"] == "" {
		t.Fatalf("500 body not a JSON error: %q", body)
	}
	// The process and listener survived: a normal query still works.
	resp, err = http.Get(ts.URL + "/search?q=" + urlQuery(query))
	if err != nil {
		t.Fatalf("post-panic search: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-panic search = %d", resp.StatusCode)
	}
}

// TestReadyzLifecycle: a pending server is alive but not ready — API calls
// and /readyz answer 503 — and flips atomically to ready on SetReadyMapped.
func TestReadyzLifecycle(t *testing.T) {
	sys, cs, scores, query := testState(t)
	s := NewPending(Config{})
	if rec := get(t, s, "/healthz"); rec.Code != 200 {
		t.Fatalf("pending healthz = %d", rec.Code)
	}
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pending readyz = %d, want 503", rec.Code)
	}
	for _, path := range []string{"/search?q=x", "/contexts?q=x", "/papers/0", "/stats"} {
		if rec := get(t, s, path); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("pending %s = %d, want 503", path, rec.Code)
		}
	}
	s.install(sys, cs, scores)
	if rec := get(t, s, "/readyz"); rec.Code != 200 {
		t.Fatalf("ready readyz = %d", rec.Code)
	}
	if rec := get(t, s, "/search?q="+urlQuery(query)); rec.Code != 200 {
		t.Fatalf("ready search = %d: %s", rec.Code, rec.Body)
	}
}

// TestGracefulShutdownDrains: cancelling Run's context while a request is
// in flight must let that request finish with a 200 before Run returns.
func TestGracefulShutdownDrains(t *testing.T) {
	s, query := faultServer(t, queryDeadline(0))
	inFlight := make(chan struct{})
	var once sync.Once
	s.testHook = func(ctx context.Context) {
		once.Do(func() { close(inFlight) })
		time.Sleep(200 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, "127.0.0.1:0", s, RunConfig{OnListen: func(a net.Addr) { addrc <- a }})
	}()
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-runErr:
		t.Fatalf("Run exited before listening: %v", err)
	}
	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/search?q=%s", addr, urlQuery(query)))
		if err != nil {
			resc <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resc <- result{resp.StatusCode, nil}
	}()
	select {
	case <-inFlight:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}
	cancel() // simulate SIGTERM
	select {
	case res := <-resc:
		if res.err != nil || res.status != 200 {
			t.Fatalf("in-flight request during shutdown = (%d, %v), want 200", res.status, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request was dropped by shutdown")
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run = %v, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after cancellation")
	}
}

// TestCancelledRequestBurstNoLeak: a burst of client-abandoned requests
// must not leave goroutines behind once the dust settles.
func TestCancelledRequestBurstNoLeak(t *testing.T) {
	s, query := faultServer(t, queryDeadline(25*time.Millisecond))
	s.testHook = func(ctx context.Context) { <-ctx.Done() }
	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2+g)*time.Millisecond)
				req := httptest.NewRequest("GET", "/search?q="+urlQuery(query), nil).WithContext(ctx)
				s.ServeHTTP(httptest.NewRecorder(), req)
				cancel()
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
