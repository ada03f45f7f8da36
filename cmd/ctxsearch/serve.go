package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ctxsearch"
	"ctxsearch/internal/server"
	"ctxsearch/internal/shard"
)

// serveOpts carries everything the serve and shard commands need.
type serveOpts struct {
	dataOpts
	addr, debugAddr                        string
	queryTimeout                           time.Duration
	maxInflight                            int
	readTimeout, writeTimeout, idleTimeout time.Duration
	shutdownTimeout                        time.Duration
	cacheEntries                           int
	cacheTTL                               time.Duration
	// shardURLs turns the process into a stateless coordinator; shardCount
	// > 1 makes it shard shardIndex of a multi-process deployment.
	shardURLs              string
	shardIndex, shardCount int
	shardTimeout           time.Duration
	allowPartial           bool
	// Coordinator resilience tuning (see internal/resilience).
	maxRetries                     int
	retryBudget, retryRatio        float64
	hedgeAfter                     time.Duration
	breakerThreshold               int
	breakerCooldown, probeInterval time.Duration
}

// orOff maps a flag's "<= 0 disables" onto Config's and ShardConfig's
// "negative disables" (their zero means the default).
func orOff[T int | float64 | time.Duration](v T) T {
	if v <= 0 {
		return -1
	}
	return v
}

// serveCmd runs the hardened HTTP server: the port binds immediately with a
// pending server (liveness up, readiness 503), the state is opened or
// built in the background (load) and swapped in, and SIGINT/SIGTERM
// (or ctx cancellation) trigger a graceful drain. A failed build shuts the
// server down and surfaces the build error.
func serveCmd(ctx context.Context, out io.Writer, o serveOpts) error {
	scfg := server.Config{
		QueryTimeout: orOff(o.queryTimeout),
		MaxInflight:  orOff(o.maxInflight),
		CacheEntries: orOff(o.cacheEntries),
		CacheTTL:     orOff(o.cacheTTL),
		Logger:       log.New(os.Stderr, "ctxsearch: ", log.LstdFlags),
	}
	run := server.RunConfig{
		ReadTimeout:     o.readTimeout,
		WriteTimeout:    o.writeTimeout,
		IdleTimeout:     o.idleTimeout,
		ShutdownTimeout: o.shutdownTimeout,
		OnListen:        func(a net.Addr) { fmt.Fprintf(out, "listening on %s\n", a) },
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if o.debugAddr != "" {
		// The profiling suite lives on its own listener so it can be bound
		// to localhost while -addr faces the world; a CPU profile or trace
		// holds its response open for its whole capture window, hence the
		// generous write timeout. A failed debug bind kills the deployment
		// — an operator who asked for profiling should not silently run
		// without it.
		go func() {
			derr := server.Run(ctx, o.debugAddr, server.DebugHandler(), server.RunConfig{
				ReadTimeout:     5 * time.Second,
				WriteTimeout:    5 * time.Minute,
				ShutdownTimeout: o.shutdownTimeout,
				OnListen:        func(a net.Addr) { fmt.Fprintf(out, "debug listening on %s (pprof)\n", a) },
			})
			if derr != nil {
				fmt.Fprintln(os.Stderr, "ctxsearch: debug listener:", derr)
				cancel()
			}
		}()
	}

	// Coordinator shape: no corpus, no engine — just the fan-out front over
	// the given shard servers. Ready as soon as the port binds (readiness
	// aggregates the shards' own readiness).
	if o.shardURLs != "" {
		var urls []string
		for _, u := range strings.Split(o.shardURLs, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return fmt.Errorf("serve: -shard-urls has no URLs")
		}
		coord := server.NewCoordinator(urls, scfg, server.ShardConfig{
			ShardTimeout:     orOff(o.shardTimeout),
			AllowPartial:     o.allowPartial,
			MaxRetries:       orOff(o.maxRetries),
			RetryBudget:      orOff(o.retryBudget),
			RetryRatio:       o.retryRatio,
			HedgeAfter:       o.hedgeAfter,
			BreakerThreshold: o.breakerThreshold,
			BreakerCooldown:  o.breakerCooldown,
			ProbeInterval:    orOff(o.probeInterval),
		})
		defer coord.Close()
		fmt.Fprintf(out, "coordinating %d shards (%d replicas)\n", coord.NumShards(), coord.NumBackends())
		return server.Run(ctx, o.addr, coord, run)
	}

	srv := server.NewPending(scfg)
	defer srv.Close()
	buildErr := make(chan error, 1)
	go func() {
		if err := buildAndInstall(out, srv, o); err != nil {
			buildErr <- err
			cancel()
			return
		}
		buildErr <- nil
	}()
	err := server.Run(ctx, o.addr, srv, run)
	select {
	case berr := <-buildErr:
		if berr != nil {
			return berr
		}
	default:
	}
	return err
}

// buildAndInstall loads the serving state, installs it into srv with the
// engine the shard flags ask for — flipping /readyz — and records
// boot-to-ready in the build stats (stage "readyz-flip") and in /stats'
// cold_start_ms. The server takes ownership of the state file's mapping: it
// stays alive until the backend is swapped out and the last in-flight
// request releases it.
func buildAndInstall(out io.Writer, srv *server.Server, o serveOpts) error {
	start := time.Now()
	a, err := load(o.dataOpts, false)
	if err != nil {
		return err
	}
	searcher, ready, err := newSearcher(o, a)
	if err != nil {
		a.close()
		return err
	}
	var ref server.StateRef // stays a nil interface when nothing is mapped
	if a.mapped != nil {
		ref = a.mapped
	}
	srv.SetReadyMapped(a.sys, a.cs, a.matrix, searcher, ref)
	fmt.Fprintln(out, ready)

	cold := time.Since(start)
	a.sys.BuildStats().Add("readyz-flip", cold, 0, "")
	srv.SetColdStart(cold)
	fmt.Fprintf(out, "cold start %s (zero-copy mmap: %v)\n", cold.Round(time.Microsecond), a.mapped != nil && a.mapped.ZeroCopy())
	fmt.Fprintln(out, a.sys.BuildStats().Summary())
	return nil
}

// newSearcher binds the engine the shard flags ask for, and the line that
// announces it.
func newSearcher(o serveOpts, a *app) (*ctxsearch.Engine, string, error) {
	sys := a.sys
	if o.shardCount <= 1 {
		return sys.Engine(a.matrix), "engine ready", nil
	}
	// One shard process of a multi-process deployment: full system (the
	// analyzer's global statistics and the render endpoints need it) but a
	// range-restricted query engine.
	eng, r, err := shard.RangeEngineParts(sys.Analyzer(), a.parts, a.matrix, sys.Config().Relevancy, o.shardIndex, o.shardCount)
	if err != nil {
		return nil, "", err
	}
	return eng, fmt.Sprintf("shard %d/%d ready (papers %d-%d)", o.shardIndex, o.shardCount, r.Lo, r.Hi-1), nil
}
