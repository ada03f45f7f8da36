package search

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ctxsearch/internal/goldentest"
)

// multiContextQuery returns the first two generated context names as one
// query, which must select at least two contexts, so the scoring stage has
// several rows to cancel between.
func multiContextQuery(t *testing.T, f *fixture) string {
	t.Helper()
	qs := goldentest.Queries(t, f.Onto, f.Matrix.Contexts())
	q := qs[0].Text + " " + qs[1].Text
	if sel := f.engine.SelectContexts(q, cancelOpts()); len(sel) < 2 {
		t.Skipf("query %q selects only %d contexts", q, len(sel))
	}
	return q
}

func cancelOpts() Options {
	return Options{MaxContexts: 8, MinContextMatch: 0.01}
}

// setScoreRowHook installs a fault-injection hook for the duration of the
// test. Tests using it must not run in parallel (none in this package do).
func setScoreRowHook(t *testing.T, h func()) {
	t.Helper()
	scoreRowHook = h
	t.Cleanup(func() { scoreRowHook = nil })
}

// TestSearchContextMatchesSearch pins the context-threaded path to the
// plain one: with a background context both must return identical results.
func TestSearchContextMatchesSearch(t *testing.T) {
	f := buildFixture(t)
	for _, q := range goldentest.Queries(t, f.Onto, f.Matrix.Contexts()) {
		for _, p := range goldentest.Pages(0, 0) {
			got, err := f.engine.SearchContext(context.Background(), q.Text, Options(p))
			if err != nil {
				t.Fatalf("SearchContext(%q): %v", q.Text, err)
			}
			goldentest.Same(t, q.Text, got, f.engine.Search(q.Text, Options(p)))
		}
	}
}

// TestSearchCancelledBeforeStart: a context cancelled before the call must
// return ctx.Err() without doing any scoring work.
func TestSearchCancelledBeforeStart(t *testing.T) {
	f := buildFixture(t)
	q := multiContextQuery(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	setScoreRowHook(t, func() { t.Error("scoring ran under a cancelled context") })
	if res, err := f.engine.SearchContext(ctx, q, cancelOpts()); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("SearchContext = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if res, err := f.engine.SearchBooleanContext(ctx, q, cancelOpts()); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("SearchBooleanContext = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if sel, err := f.engine.SelectContextsContext(ctx, q, cancelOpts()); !errors.Is(err, context.Canceled) || sel != nil {
		t.Fatalf("SelectContextsContext = (%v, %v), want (nil, context.Canceled)", sel, err)
	}
}

// TestSearchCancelledMidScoring injects slow per-context scoring, cancels
// while a row is in flight, and requires the search to return
// context.Canceled within 100ms of the cancellation.
func TestSearchCancelledMidScoring(t *testing.T) {
	f := buildFixture(t)
	q := multiContextQuery(t, f)
	started := make(chan struct{}, 16)
	setScoreRowHook(t, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(30 * time.Millisecond)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		res []Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.engine.SearchContext(ctx, q, cancelOpts())
		done <- outcome{res, err}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("scoring never started")
	}
	cancelledAt := time.Now()
	cancel()
	select {
	case o := <-done:
		if elapsed := time.Since(cancelledAt); elapsed > 100*time.Millisecond {
			t.Fatalf("search returned %v after cancellation (want <100ms)", elapsed)
		}
		if !errors.Is(o.err, context.Canceled) || o.res != nil {
			t.Fatalf("SearchContext = (%v, %v), want (nil, context.Canceled)", o.res, o.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled search never returned")
	}
}

// TestSearchDeadlineExpiry: an expired deadline mid-scoring surfaces as
// context.DeadlineExceeded promptly.
func TestSearchDeadlineExpiry(t *testing.T) {
	f := buildFixture(t)
	q := multiContextQuery(t, f)
	setScoreRowHook(t, func() { time.Sleep(15 * time.Millisecond) })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := f.engine.SearchContext(ctx, q, cancelOpts())
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("SearchContext = (%v, %v), want (nil, context.DeadlineExceeded)", res, err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("deadline-expired search took %v", elapsed)
	}
}

// TestCancelledBurstNoGoroutineLeak fires a concurrent burst of searches
// whose contexts are cancelled mid-flight and requires the goroutine count
// to settle back to baseline ±2.
func TestCancelledBurstNoGoroutineLeak(t *testing.T) {
	f := buildFixture(t)
	q := multiContextQuery(t, f)
	setScoreRowHook(t, func() { time.Sleep(2 * time.Millisecond) })

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+g%5)*time.Millisecond)
				_, _ = f.engine.SearchContext(ctx, q, cancelOpts())
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
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBooleanSearchCancelledMidScoring is the boolean-path counterpart of
// the mid-scoring cancellation test.
func TestBooleanSearchCancelledMidScoring(t *testing.T) {
	f := buildFixture(t)
	q := multiContextQuery(t, f)
	started := make(chan struct{}, 16)
	setScoreRowHook(t, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		time.Sleep(30 * time.Millisecond)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := f.engine.SearchBooleanContext(ctx, q, cancelOpts())
		errc <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Skip("boolean query produced no scoring work")
	}
	cancelledAt := time.Now()
	cancel()
	select {
	case err := <-errc:
		if elapsed := time.Since(cancelledAt); elapsed > 100*time.Millisecond {
			t.Fatalf("boolean search returned %v after cancellation", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled boolean search never returned")
	}
}
