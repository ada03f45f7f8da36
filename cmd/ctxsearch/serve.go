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

// serveCmd runs the hardened HTTP server: the port binds immediately with a
// pending server (liveness up, readiness 503), the state is opened or
// built in the background (load) and swapped in, and SIGINT/SIGTERM
// (or ctx cancellation) trigger a graceful drain. A failed build shuts the
// server down and surfaces the build error.
func serveCmd(ctx context.Context, o *options, out io.Writer, _ []string) error {
	o.server.Logger = log.New(os.Stderr, "ctxsearch: ", log.LstdFlags)
	api := server.RunConfig{OnListen: func(a net.Addr) { fmt.Fprintf(out, "listening on %s\n", a) }}
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
				WriteTimeout: 5 * time.Minute,
				OnListen:     func(a net.Addr) { fmt.Fprintf(out, "debug listening on %s (pprof)\n", a) },
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
		coord := server.NewCoordinator(urls, o.server, o.shard)
		defer coord.Close()
		fmt.Fprintf(out, "coordinating %d shards (%d replicas)\n", coord.NumShards(), coord.NumBackends())
		return server.Run(ctx, o.addr, coord, api)
	}

	srv := server.NewPending(o.server)
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
	err := server.Run(ctx, o.addr, srv, api)
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
func buildAndInstall(out io.Writer, srv *server.Server, o *options) error {
	start := time.Now()
	a, err := load(o)
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
func newSearcher(o *options, a *app) (*ctxsearch.Engine, string, error) {
	sys := a.sys
	if o.shardCount <= 1 {
		return sys.Engine(a.matrix), "engine ready", nil
	}
	// One shard process of a multi-process deployment: full system (the
	// analyzer's global statistics and the render endpoints need it) but a
	// range-restricted query engine.
	eng, r, err := shard.RangeEngineParts(sys.Analyzer(), sys.Index().Parts(), a.matrix, sys.Config().Relevancy, o.shardIndex, o.shardCount)
	if err != nil {
		return nil, "", err
	}
	return eng, fmt.Sprintf("shard %d/%d ready (papers %d-%d)", o.shardIndex, o.shardCount, r.Lo, r.Hi-1), nil
}
