package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// The middleware stack is shared by the single-engine Server and the
// scatter-gather Coordinator: package-level wrappers parameterised on the
// logger / semaphore / deadline they need, composed by newFront.

// newFront registers /healthz on mux and wraps it in the production stack:
// API requests are shed past tu.maxInflight and run under tu.queryTimeout;
// /healthz and /readyz bypass both (probes must answer while the API is
// saturated); recovery and logging wrap everything. It returns the handler
// and the logger it resolved (nil = discard).
func newFront(cfg Config, tu tuning, mux *http.ServeMux) (http.Handler, *log.Logger) {
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	var inflight chan struct{}
	if tu.maxInflight > 0 {
		inflight = make(chan struct{}, tu.maxInflight)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	api := withShedding(inflight, retryAfterSecs(tu.queryTimeout), withTimeout(tu.queryTimeout, mux))
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz":
			mux.ServeHTTP(w, r)
		default:
			api.ServeHTTP(w, r)
		}
	})
	return withLogging(logger, withRecovery(logger, root)), logger
}

// writeCtxErr answers a request whose context ended, reporting whether err
// was that: an expired deadline is a 503 with a Retry-After derived from the
// deadline (the request was accepted but could not be answered in time), a
// client cancellation gets no response at all (the peer is gone), only a log
// line.
func writeCtxErr(w http.ResponseWriter, r *http.Request, logger *log.Logger, deadline time.Duration, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", retryAfterSecs(deadline))
		writeErr(w, http.StatusServiceUnavailable, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		logger.Printf("client abandoned %s %s", r.Method, r.URL.Path)
	default:
		return false
	}
	return true
}

// statusRecorder captures the status code and whether anything was written,
// for request logging and for recovery's "can I still write a 500?" check.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.status = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if !sr.wrote {
		sr.status = http.StatusOK
		sr.wrote = true
	}
	return sr.ResponseWriter.Write(b)
}

// withLogging logs every request with status and latency. A handler that
// wrote nothing (client abandoned the request) is logged as 499,
// nginx-style.
func withLogging(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		status := rec.status
		if !rec.wrote {
			status = 499
		}
		logger.Printf("%s %s %d %s", r.Method, r.URL.RequestURI(), status, time.Since(start).Round(time.Microsecond))
	})
}

// withRecovery turns a handler panic into a logged 500 instead of killing
// the process (net/http would only kill the connection's goroutine, but a
// panic during response writing can still leave a half-written reply, and
// panics outside an http.Server — e.g. under httptest recorders — would
// propagate). http.ErrAbortHandler keeps its conventional meaning.
func withRecovery(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if sr, ok := w.(*statusRecorder); !ok || !sr.wrote {
				writeErr(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// retryAfterSecs renders a duration as a Retry-After header value: the
// duration rounded up to whole seconds, floored at 1 (Retry-After: 0 tells
// clients to hammer). It is the single source of retry hints — the shed
// path derives it from the request deadline, the coordinator's 503s from
// the shard timeout and breaker cool-down — so every backpressure signal
// the server emits stays consistent with the configuration that caused it.
func retryAfterSecs(d time.Duration) string {
	secs := (int64(d) + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// withShedding bounds concurrently served requests with a semaphore and
// sheds the excess immediately with 429 + Retry-After — under overload a
// fast rejection beats a queued request that will only time out later.
// retryAfter is the Retry-After value for shed responses (derive it with
// retryAfterSecs from the request deadline: by then the requests holding
// the semaphore have either finished or timed out). A nil semaphore
// disables shedding.
func withShedding(inflight chan struct{}, retryAfter string, next http.Handler) http.Handler {
	if inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case inflight <- struct{}{}:
			defer func() { <-inflight }()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", retryAfter)
			writeErr(w, http.StatusTooManyRequests, "server overloaded (%d requests in flight)", cap(inflight))
		}
	})
}

// withTimeout attaches the per-request deadline to the request context. The
// handlers thread that context through the scoring pipeline (or the shard
// fan-out) and map its expiry to a 503 (writeQueryErr), so a slow or
// abandoned query stops computing instead of running to completion. A
// non-positive deadline disables the wrapper.
func withTimeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
