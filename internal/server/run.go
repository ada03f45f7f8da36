package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Run's http.Server timeouts: the full request read, the API's response
// write — comfortably above queryTimeout, so a deadline-expired query can
// still deliver its 503 — and keep-alive idling; and the drain window for
// in-flight requests on shutdown.
const (
	readTimeout     = 5 * time.Second
	writeTimeout    = 30 * time.Second
	idleTimeout     = 2 * time.Minute
	shutdownTimeout = 10 * time.Second
)

// RunConfig is what Run's callers set differently.
type RunConfig struct {
	// WriteTimeout bounds writing a response (0 = writeTimeout, the API's).
	// A profiling listener needs longer: a CPU profile holds its response
	// open for the whole capture.
	WriteTimeout time.Duration
	// OnListen, when set, receives the bound address before serving starts
	// — with ":0" this is the only way to learn the chosen port.
	OnListen func(net.Addr)
}

// Run serves h on addr until ctx is cancelled (e.g. by SIGINT/SIGTERM via
// signal.NotifyContext), then shuts down gracefully: the listener closes,
// in-flight requests get up to shutdownTimeout to finish, and only then are
// stragglers cut off. Returns nil on a clean drain, the serve error if the
// listener fails first.
func Run(ctx context.Context, addr string, h http.Handler, cfg RunConfig) error {
	write := writeTimeout
	if cfg.WriteTimeout > 0 {
		write = cfg.WriteTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	hs := &http.Server{
		Handler:      h,
		ReadTimeout:  readTimeout,
		WriteTimeout: write,
		IdleTimeout:  idleTimeout,
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	return nil
}
