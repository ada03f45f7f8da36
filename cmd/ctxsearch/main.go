// Command ctxsearch is the interactive front end of the library: it
// generates (or loads) a corpus + ontology, builds a context paper set,
// computes prestige scores with a chosen function, and answers queries.
//
// Usage:
//
//	ctxsearch [flags] <command> [args]
//
// Commands:
//
//	generate           generate a synthetic corpus and save it (-corpus, -obo)
//	build              build the context set + scores and save them with the
//	                   text index (-state); with -v, print the offline-build
//	                   timing summary
//	search  <query>    run a context-based search
//	contexts <query>   show which contexts a query selects
//	inspect <paperID>  print one paper with its contexts and scores
//	stats              corpus/ontology/context-set statistics
//	sim <t1> <t2>      semantic similarity between two ontology terms
//	related <term>     ontology terms most similar to the given term
//	cluster <query>    k-means clustering of keyword results (related work §6)
//	export <jsonl|gaf> <path>  export the corpus in an interchange format
//	serve              run the HTTP JSON API (-addr); with -shard-urls=...
//	                   the process is a stateless coordinator over remote
//	                   shard servers instead
//	shard              run one shard server of a multi-process deployment
//	                   (-shard-index, -shard-count): the full system is
//	                   loaded, but queries run on the shard's paper range
//	                   and the internal POST /shard/search endpoint
//	                   serves the coordinator: a range's unrendered
//	                   rows, or with "finish" the finished page
//
// Flags:
//
//	-papers N     synthetic corpus size (default 2000)
//	-terms N      synthetic ontology size (default 400)
//	-seed N       generator seed (default 1)
//	-corpus PATH  corpus gob file to load/save (optional)
//	-obo PATH     ontology OBO file to load/save (optional)
//	-state PATH   state file (context set, scores, text index); if present
//	              it is memory-mapped and no paper is analysed, otherwise
//	              it is written after the build (optional)
//	-set  KIND    context set: text | pattern (default text)
//	-score FN     prestige function: text | citation | pattern (default text)
//	-limit N      max search results (default 15)
//	-addr ADDR    listen address for serve (default :8080)
//	-build-workers N  offline-build parallelism: analysis, index and
//	                  position-index construction, context-set assembly,
//	                  prestige scoring (default 0 = GOMAXPROCS, 1 =
//	                  serial; output identical at any N)
//	-v            verbose: print the build timing summary after the
//	              offline build finishes
//
// Serving flags (see the README's "Serving" section):
//
//	-query-timeout D       per-request search deadline; expiry returns 503
//	                       (default 2s, <=0 disables)
//	-max-inflight N        concurrent API request cap; excess sheds with
//	                       429 + Retry-After (default 64, <=0 unlimited)
//	-http-read-timeout D   http.Server ReadTimeout (default 5s)
//	-http-write-timeout D  http.Server WriteTimeout (default 30s)
//	-http-idle-timeout D   http.Server IdleTimeout (default 2m)
//	-shutdown-timeout D    drain window on SIGINT/SIGTERM (default 10s)
//	-cache-entries N       /search result-cache capacity (default 1024,
//	                       <=0 disables caching)
//	-cache-ttl D           cached /search response lifetime (default 1m,
//	                       <=0 = no expiry; every engine swap still
//	                       invalidates the cache)
//	-debug-addr ADDR       serve /debug/pprof on a SEPARATE listener
//	                       (default off; bind to localhost or a private
//	                       interface — never the public port)
//
// Sharding flags (see the README's "Sharded serving" section):
//
//	-shard-urls LIST   serve: run as a stateless coordinator over the
//	                   comma-separated shard base URLs instead of
//	                   building any engine; each comma-separated range may
//	                   list several replicas separated by "|"
//	                   (url1|url2,url3|url4 = 2 ranges x 2 replicas)
//	-shard-index N     shard: which range this process serves (0-based)
//	-shard-count N     shard: total number of shard processes
//	-shard-timeout D   coordinator: per-shard sub-request deadline
//	                   (default 1s; <=0 disables)
//	-allow-partial     coordinator: on shard failure serve a degraded
//	                   page flagged "partial": true instead of a 503
//
// Coordinator resilience flags (replicated deployments; see DESIGN.md's
// failure-mode matrix):
//
//	-max-retries N        retries per failed range call, each preferring a
//	                      replica not yet tried (default 2; 0 disables)
//	-retry-budget N       retry token bucket capacity; retries across ALL
//	                      requests are bounded by capacity + requests*ratio,
//	                      so retry storms cannot multiply overload
//	                      (default 10; <=0 unbounded)
//	-retry-ratio R        tokens deposited per request (default 0.1)
//	-hedge-after D        race a second replica when the first is slower
//	                      than D, first success wins (default 0 = off)
//	-breaker-threshold N  consecutive failures that trip a replica's
//	                      circuit breaker open (default 5)
//	-breaker-cooldown D   open-breaker rejection window before a half-open
//	                      probe (default 2s)
//	-probe-interval D     active /healthz probe period feeding breaker and
//	                      replica-selection state (default 500ms;
//	                      <=0 disables)
//
// serve binds its port immediately and opens (or builds) the state in the
// background: /healthz answers at once, /readyz (and the API) flip from
// 503 to 200 when the engine is ready, and SIGINT/SIGTERM drain in-flight
// requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ctxsearch"
	"ctxsearch/internal/cluster"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/resilience"
	"ctxsearch/internal/server"
	"ctxsearch/internal/shard"
	"ctxsearch/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ctxsearch:", err)
		os.Exit(1)
	}
}

// app is the state every command but generate and the coordinator works on:
// what load opened from the state file or built in-process.
type app struct {
	sys *ctxsearch.System
	cs  *ctxsearch.ContextSet
	// matrix is the frozen CSR prestige matrix — computed scores are frozen
	// once after scoring, an opened state hands the matrix over directly.
	matrix *ctxsearch.Matrix
	// parts are the postings shard engines slice: the state file's, or the
	// built index's own.
	parts *index.Parts
	// mapped is the open state file sys, cs, matrix and parts alias; nil
	// when they were built in-process.
	mapped *store.Mapped

	engine  *ctxsearch.Engine
	limit   int
	boolean bool
}

func run(args []string, out io.Writer) error {
	return runCtx(context.Background(), args, out)
}

// runCtx is run with a caller-supplied base context, so tests can stop a
// serve command the way a SIGTERM would.
func runCtx(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ctxsearch", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	papers := fs.Int("papers", 2000, "synthetic corpus size")
	terms := fs.Int("terms", 400, "synthetic ontology size")
	seed := fs.Int64("seed", 1, "generator seed")
	corpusPath := fs.String("corpus", "", "corpus gob file (load if present, else save)")
	oboPath := fs.String("obo", "", "ontology OBO file (load if present, else save)")
	setKind := fs.String("set", "text", "context set: text | pattern")
	scoreFn := fs.String("score", "text", "prestige function: text | citation | pattern")
	limit := fs.Int("limit", 15, "max results")
	boolean := fs.Bool("boolean", false, "treat the search query as a boolean expression (AND/OR/NOT, \"phrases\", field:term)")
	statePath := fs.String("state", "", "state file: context set, scores and text index (memory-mapped if present, else written after the build)")
	stateFormat := fs.String("state-format", "v5", "state file format; v5 is the only one")
	buildWorkers := fs.Int("build-workers", 0, "offline-build parallelism (0 = GOMAXPROCS; output identical at any setting)")
	verbose := fs.Bool("v", false, "print the offline-build timing summary")
	addr := fs.String("addr", ":8080", "listen address for serve")
	queryTimeout := fs.Duration("query-timeout", server.DefaultQueryTimeout, "serve: per-request search deadline, expiry returns 503 (<=0 disables)")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight, "serve: max concurrently served API requests, excess sheds with 429 (<=0 unlimited)")
	httpReadTimeout := fs.Duration("http-read-timeout", 5*time.Second, "serve: http.Server ReadTimeout")
	httpWriteTimeout := fs.Duration("http-write-timeout", 30*time.Second, "serve: http.Server WriteTimeout")
	httpIdleTimeout := fs.Duration("http-idle-timeout", 2*time.Minute, "serve: http.Server IdleTimeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "serve: drain window for in-flight requests on SIGINT/SIGTERM")
	cacheEntries := fs.Int("cache-entries", server.DefaultCacheEntries, "serve: /search result-cache capacity (<=0 disables caching)")
	cacheTTL := fs.Duration("cache-ttl", server.DefaultCacheTTL, "serve: cached /search response lifetime (<=0 = no expiry)")
	debugAddr := fs.String("debug-addr", "", "serve: /debug/pprof listen address (empty = profiling off; never expose publicly)")
	shardURLs := fs.String("shard-urls", "", "serve: run as a coordinator over these comma-separated shard base URLs")
	shardIndex := fs.Int("shard-index", 0, "shard: which paper range this process serves (0-based)")
	shardCount := fs.Int("shard-count", 1, "shard: total number of shard processes")
	shardTimeout := fs.Duration("shard-timeout", server.DefaultShardTimeout, "coordinator: per-shard sub-request deadline (<=0 disables)")
	allowPartial := fs.Bool("allow-partial", false, "coordinator: serve degraded pages flagged partial instead of 503 on shard failure")
	maxRetries := fs.Int("max-retries", server.DefaultMaxRetries, "coordinator: retries per failed range call, preferring untried replicas (0 disables)")
	retryBudget := fs.Float64("retry-budget", resilience.DefaultBudgetCapacity, "coordinator: retry token bucket capacity bounding total retry amplification (<=0 unbounded)")
	retryRatio := fs.Float64("retry-ratio", resilience.DefaultBudgetRatio, "coordinator: retry tokens deposited per request (steady-state retry fraction)")
	hedgeAfter := fs.Duration("hedge-after", 0, "coordinator: hedge a slow range call to a second replica after this delay (0 disables)")
	breakerThreshold := fs.Int("breaker-threshold", resilience.DefaultFailureThreshold, "coordinator: consecutive failures tripping a replica's circuit breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", resilience.DefaultCooldown, "coordinator: how long an open breaker rejects before a half-open probe")
	probeInterval := fs.Duration("probe-interval", resilience.DefaultProbeInterval, "coordinator: active /healthz probe period per replica (<=0 disables probing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	if *stateFormat != "v5" {
		return fmt.Errorf("unknown -state-format %q: v5 is the only state format", *stateFormat)
	}

	cfg := ctxsearch.DefaultConfig()
	cfg.Seed = *seed
	cfg.Papers = *papers
	cfg.OntologyTerms = *terms
	cfg.BuildWorkers = *buildWorkers

	d := dataOpts{
		cfg:        cfg,
		corpusPath: *corpusPath, oboPath: *oboPath,
		setKind: *setKind, scoreFn: *scoreFn, statePath: *statePath,
	}
	if cmd == "serve" || cmd == "shard" {
		// A shard flag on the wrong command would be dropped, and the process
		// would serve the whole corpus (or coordinate) where a range was meant.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if cmd == "serve" && (set["shard-index"] || set["shard-count"]) {
			return fmt.Errorf("serve: -shard-index and -shard-count select a paper range of the shard command (ctxsearch -shard-index I -shard-count N shard)")
		}
		if cmd == "shard" && set["shard-urls"] {
			return fmt.Errorf("shard: -shard-urls makes a coordinator, which is the serve command; a shard serves one paper range")
		}
		o := serveOpts{
			dataOpts: d,
			addr:     *addr, debugAddr: *debugAddr,
			queryTimeout: *queryTimeout, maxInflight: *maxInflight,
			readTimeout: *httpReadTimeout, writeTimeout: *httpWriteTimeout,
			idleTimeout: *httpIdleTimeout, shutdownTimeout: *shutdownTimeout,
			cacheEntries: *cacheEntries, cacheTTL: *cacheTTL,
			shardURLs:    *shardURLs,
			shardTimeout: *shardTimeout, allowPartial: *allowPartial,
			maxRetries: *maxRetries, retryBudget: *retryBudget, retryRatio: *retryRatio,
			hedgeAfter: *hedgeAfter, breakerThreshold: *breakerThreshold,
			breakerCooldown: *breakerCooldown, probeInterval: *probeInterval,
		}
		if cmd == "shard" {
			if *shardCount < 1 || *shardIndex < 0 || *shardIndex >= *shardCount {
				return fmt.Errorf("shard: need 0 <= -shard-index < -shard-count, got %d of %d", *shardIndex, *shardCount)
			}
			o.shardIndex, o.shardCount = *shardIndex, *shardCount
		}
		return serveCmd(ctx, out, o)
	}

	if cmd == "generate" {
		o, c, _, err := loadOrGenData(d, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "generated %d papers over %d ontology terms (seed %d)\n", c.Len(), o.Len(), *seed)
		return nil
	}

	// Reject a mistyped command before load builds (and saves) the world.
	query := queryCommands[cmd]
	if query == nil && cmd != "build" {
		return fmt.Errorf("unknown command %q", cmd)
	}
	a, err := load(d, cmd == "build")
	if err != nil {
		return err
	}
	defer a.close()
	a.limit, a.boolean = *limit, *boolean
	if cmd == "build" {
		fmt.Fprintf(out, "built %s context set (%d contexts) with %q scores (%d scored contexts)\n",
			*setKind, len(a.cs.Contexts()), *scoreFn, a.matrix.NumContexts())
		if *statePath != "" {
			fmt.Fprintf(out, "state saved to %s\n", *statePath)
		}
		if *verbose {
			fmt.Fprintln(out, a.sys.BuildStats().Summary())
		}
		return nil
	}
	a.engine = a.sys.EngineFrozen(a.cs, a.matrix)
	if *verbose {
		fmt.Fprintln(out, a.sys.BuildStats().Summary())
	}
	return query(a, out, rest)
}

// queryCommands are the one-shot commands that answer from a loaded app.
var queryCommands = map[string]func(*app, io.Writer, []string) error{
	"search":   (*app).search,
	"contexts": (*app).contexts,
	"inspect":  (*app).inspect,
	"stats":    (*app).stats,
	"sim":      (*app).sim,
	"related":  (*app).related,
	"cluster":  (*app).cluster,
	"export":   (*app).export,
}

// dataOpts names the inputs of load: where the corpus, the ontology and the
// state come from, and what to build when there is no state file yet.
type dataOpts struct {
	cfg                                              ctxsearch.Config
	corpusPath, oboPath, setKind, scoreFn, statePath string
}

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

// serveCmd runs the hardened HTTP server: the port binds immediately with a
// pending server (liveness up, readiness 503), the state is opened or
// built in the background (load) and swapped in, and SIGINT/SIGTERM
// (or ctx cancellation) trigger a graceful drain. A failed build shuts the
// server down and surfaces the build error.
func serveCmd(ctx context.Context, out io.Writer, o serveOpts) error {
	qt := o.queryTimeout
	if qt <= 0 {
		qt = -1 // flag "disabled" → Config "no deadline"
	}
	mi := o.maxInflight
	if mi <= 0 {
		mi = -1
	}
	ce := o.cacheEntries
	if ce <= 0 {
		ce = -1 // flag "disabled" → Config "caching off"
	}
	ct := o.cacheTTL
	if ct <= 0 {
		ct = -1 // flag "no expiry" → Config "no TTL"
	}
	scfg := server.Config{
		QueryTimeout: qt,
		MaxInflight:  mi,
		CacheEntries: ce,
		CacheTTL:     ct,
		Logger:       log.New(os.Stderr, "ctxsearch: ", log.LstdFlags),
	}
	st := o.shardTimeout
	if st <= 0 {
		st = -1 // flag "disabled" → ShardConfig "no per-shard deadline"
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
		mr := o.maxRetries
		if mr <= 0 {
			mr = -1 // flag "disabled" → ShardConfig "no retries"
		}
		rb := o.retryBudget
		if rb <= 0 {
			rb = -1 // flag "unbounded" → ShardConfig "no budget"
		}
		pi := o.probeInterval
		if pi <= 0 {
			pi = -1 // flag "disabled" → ShardConfig "no prober"
		}
		coord := server.NewCoordinator(urls, scfg, server.ShardConfig{
			ShardTimeout:     st,
			AllowPartial:     o.allowPartial,
			MaxRetries:       mr,
			RetryBudget:      rb,
			RetryRatio:       o.retryRatio,
			HedgeAfter:       o.hedgeAfter,
			BreakerThreshold: o.breakerThreshold,
			BreakerCooldown:  o.breakerCooldown,
			ProbeInterval:    pi,
		})
		defer coord.Close()
		fmt.Fprintf(out, "coordinating %d shards (%d replicas)\n", coord.NumShards(), coord.NumBackends())
		return server.Run(ctx, o.addr, coord, server.RunConfig{
			ReadTimeout:     o.readTimeout,
			WriteTimeout:    o.writeTimeout,
			IdleTimeout:     o.idleTimeout,
			ShutdownTimeout: o.shutdownTimeout,
			OnListen:        func(a net.Addr) { fmt.Fprintf(out, "listening on %s\n", a) },
		})
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
	err := server.Run(ctx, o.addr, srv, server.RunConfig{
		ReadTimeout:     o.readTimeout,
		WriteTimeout:    o.writeTimeout,
		IdleTimeout:     o.idleTimeout,
		ShutdownTimeout: o.shutdownTimeout,
		OnListen:        func(a net.Addr) { fmt.Fprintf(out, "listening on %s\n", a) },
	})
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
		return sys.EngineFrozen(a.cs, a.matrix), "engine ready", nil
	}
	// One shard process of a multi-process deployment: full system (the
	// analyzer's global statistics and the render endpoints need it) but a
	// range-restricted query engine.
	eng, r, err := shard.RangeEngineParts(sys.Analyzer(), a.parts, a.cs, a.matrix, sys.Config().Relevancy, o.shardIndex, o.shardCount)
	if err != nil {
		return nil, "", err
	}
	return eng, fmt.Sprintf("shard %d/%d ready (papers %d-%d)", o.shardIndex, o.shardCount, r.Lo, r.Hi-1), nil
}

// load is the one road from the flags to (sys, cs, matrix, parts), taken by
// serve, shard and every one-shot command. When -state names an existing
// file it is opened and a frozen system bound to it: no paper is analysed,
// and a file written by a newer binary fails here with the version
// diagnostic. Otherwise — or always, for the build command (rebuild) — the
// full offline build runs and saves the state if a path was given.
func load(o dataOpts, rebuild bool) (*app, error) {
	if o.statePath != "" && !rebuild {
		// Only a missing file means "build it": any other failure (permission,
		// I/O) must not end in a rebuild that overwrites the path.
		if _, err := os.Stat(o.statePath); err == nil {
			return openState(o)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	return buildState(o)
}

// openState memory-maps the state file (byte-copies it where mmap is
// unavailable) and binds the engine's arrays to it directly
// (ctxsearch.NewFrozenSystem).
func openState(o dataOpts) (_ *app, err error) {
	onto, c, _, err := loadOrGenData(o, false)
	if err != nil {
		return nil, fmt.Errorf("building system: %w", err)
	}
	t0 := time.Now()
	mapped, err := store.Open(o.statePath, onto)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("loading %s: %w", o.statePath, err)
			_ = mapped.Close()
		}
	}()
	mapDur := time.Since(t0)
	a := &app{mapped: mapped}
	if a.cs, err = mapped.ContextSet(); err != nil {
		return nil, err
	}
	if a.matrix, err = mapped.Matrix(o.scoreFn); err != nil {
		return nil, err
	}
	if a.parts, err = mapped.IndexParts(); err != nil {
		return nil, err
	}
	df, err := mapped.DF()
	if err != nil {
		return nil, err
	}
	if a.sys, err = ctxsearch.NewFrozenSystem(onto, c, a.parts, df, o.cfg); err != nil {
		return nil, err
	}
	a.sys.BuildStats().Add("state-map", mapDur, 0, "")
	return a, nil
}

// buildState runs the offline build — analysis, context set, prestige
// scores — and, when -state is given, saves the result with the text-index
// postings, block-max tables and DF table, so the next boot maps the file
// instead.
func buildState(o dataOpts) (*app, error) {
	sys, err := buildSystem(o)
	if err != nil {
		return nil, fmt.Errorf("building system: %w", err)
	}
	a := &app{sys: sys}
	switch o.setKind {
	case "text":
		a.cs = sys.BuildTextContextSet()
	case "pattern":
		a.cs = sys.BuildPatternContextSet()
	default:
		return nil, fmt.Errorf("unknown context set %q", o.setKind)
	}
	var scores ctxsearch.Scores
	switch o.scoreFn {
	case "text":
		scores = sys.ScoreText(a.cs)
	case "citation":
		scores = sys.ScoreCitation(a.cs)
	case "pattern":
		scores = sys.ScorePattern(a.cs)
	default:
		return nil, fmt.Errorf("unknown score function %q", o.scoreFn)
	}
	a.matrix = scores.Freeze()
	a.parts = sys.Index().Parts()
	if o.statePath != "" {
		st := &store.State{
			ContextSet: a.cs,
			Matrices:   map[string]*ctxsearch.Matrix{o.scoreFn: a.matrix},
			Index:      a.parts,
			DF:         sys.Analyzer().DF(),
		}
		var serr error
		sys.BuildStats().Time("state-save", 0, "", func() {
			serr = store.SaveFile(o.statePath, st)
		})
		if serr != nil {
			return nil, fmt.Errorf("saving %s: %w", o.statePath, serr)
		}
	}
	return a, nil
}

// close releases the state file's mapping, if the app holds one.
func (a *app) close() {
	if a.mapped != nil {
		_ = a.mapped.Close()
	}
}

// buildSystem analyses the corpus loadOrGenData resolves. Producing the
// inputs is recorded as the first build stage ("generate", or "load" when
// both came from files), so the -v summary adds up to the process's wall
// time.
func buildSystem(d dataOpts) (*ctxsearch.System, error) {
	start := time.Now()
	o, c, generated, err := loadOrGenData(d, false)
	if err != nil {
		return nil, err
	}
	took := time.Since(start)
	sys, err := ctxsearch.NewSystem(o, c, d.cfg)
	if err != nil {
		return nil, err
	}
	stage := "load"
	if generated {
		stage = "generate"
	}
	sys.BuildStats().AddFirst(stage, took, c.Len(), "papers")
	return sys, nil
}

// loadOrGenData resolves the ontology and corpus without analysing them —
// the raw inputs both the full build and the mapped-state cold start need —
// loading each from its file when that exists (unless forceGenerate),
// generating and saving it otherwise, and reports whether either had to be
// generated.
func loadOrGenData(d dataOpts, forceGenerate bool) (o *ctxsearch.Ontology, c *ctxsearch.Corpus, generated bool, err error) {
	cfg, corpusPath, oboPath := d.cfg, d.corpusPath, d.oboPath
	if !forceGenerate && oboPath != "" {
		if f, err := os.Open(oboPath); err == nil {
			defer f.Close()
			parsed, err := ontology.ParseOBO(f)
			if err != nil {
				return nil, nil, false, fmt.Errorf("parsing %s: %w", oboPath, err)
			}
			o = parsed
		}
	}
	if !forceGenerate && corpusPath != "" {
		if _, err := os.Stat(corpusPath); err == nil {
			loaded, err := corpus.LoadFile(corpusPath)
			if err != nil {
				return nil, nil, false, fmt.Errorf("loading %s: %w", corpusPath, err)
			}
			c = loaded
		}
	}
	if o == nil {
		generated = true
		gen, err := ontology.Generate(ontology.GenConfig{
			Seed: cfg.Seed, NumTerms: cfg.OntologyTerms, MaxDepth: cfg.MaxDepth, SecondParentProb: 0.12,
		})
		if err != nil {
			return nil, nil, false, err
		}
		o = gen
		if oboPath != "" {
			f, err := os.Create(oboPath)
			if err != nil {
				return nil, nil, false, err
			}
			if err := o.WriteOBO(f); err != nil {
				f.Close()
				return nil, nil, false, err
			}
			if err := f.Close(); err != nil {
				return nil, nil, false, err
			}
		}
	}
	if c == nil {
		generated = true
		gcfg := corpus.DefaultGenConfig(cfg.Papers)
		gcfg.Seed = cfg.Seed
		gen, err := corpus.Generate(o, gcfg)
		if err != nil {
			return nil, nil, false, err
		}
		c = gen
		if corpusPath != "" {
			if err := c.SaveFile(corpusPath); err != nil {
				return nil, nil, false, err
			}
		}
	}
	return o, c, generated, nil
}

func (a *app) search(out io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("search: missing query")
	}
	query := join(args)
	var results []ctxsearch.SearchResult
	if a.boolean {
		var err error
		results, err = a.engine.SearchBoolean(query, ctxsearch.SearchOptions{Limit: a.limit})
		if err != nil {
			return fmt.Errorf("search: %w", err)
		}
	} else {
		results = a.engine.Search(query, ctxsearch.SearchOptions{Limit: a.limit})
	}
	if len(results) == 0 {
		fmt.Fprintf(out, "no results for %q\n", query)
		return nil
	}
	fmt.Fprintf(out, "%d results for %q\n", len(results), query)
	for i, r := range results {
		p := a.sys.Corpus.Paper(r.Doc)
		fmt.Fprintf(out, "%2d. [%.3f] PMID %d (%d) %s\n", i+1, r.Relevancy, p.PMID, p.Year, p.Title)
		fmt.Fprintf(out, "    prestige %.3f · match %.3f · context %s (%s)\n",
			r.Prestige, r.Match, r.Context, a.sys.Ontology.Term(r.Context).Name)
		if snip := a.sys.Index().Snippet(r.Doc, query, index.SnippetOptions{Window: 18}); snip != "" {
			fmt.Fprintf(out, "    %s\n", snip)
		}
	}
	return nil
}

func (a *app) contexts(out io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("contexts: missing query")
	}
	query := join(args)
	sel := a.engine.SelectContexts(query, ctxsearch.SearchOptions{})
	if len(sel) == 0 {
		fmt.Fprintf(out, "no contexts match %q\n", query)
		return nil
	}
	fmt.Fprintf(out, "%d contexts for %q\n", len(sel), query)
	for _, cs := range sel {
		t := a.sys.Ontology.Term(cs.Context)
		fmt.Fprintf(out, "  [%.2f] %s %q level %d, %d papers\n",
			cs.Score, cs.Context, t.Name, a.sys.Ontology.Level(cs.Context), a.cs.Size(cs.Context))
	}
	return nil
}

func (a *app) inspect(out io.Writer, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("inspect: want exactly one paper ID")
	}
	id, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("inspect: bad paper ID %q", args[0])
	}
	p := a.sys.Corpus.Paper(ctxsearch.PaperID(id))
	if p == nil {
		return fmt.Errorf("inspect: no paper %d", id)
	}
	fmt.Fprintf(out, "paper %d · PMID %d · %d\n", p.ID, p.PMID, p.Year)
	fmt.Fprintf(out, "title:    %s\n", p.Title)
	fmt.Fprintf(out, "authors:  %v\n", p.Authors)
	fmt.Fprintf(out, "refs:     %d out, %d in\n", len(p.References), len(a.sys.Corpus.CitedBy(p.ID)))
	fmt.Fprintf(out, "contexts:\n")
	for _, ctx := range a.cs.ContextsOf(p.ID) {
		score := a.matrix.Get(ctx, p.ID)
		fmt.Fprintf(out, "  %s %q prestige %.3f\n", ctx, a.sys.Ontology.Term(ctx).Name, score)
	}
	return nil
}

func (a *app) stats(out io.Writer, _ []string) error {
	o, c := a.sys.Ontology, a.sys.Corpus
	fmt.Fprintf(out, "ontology: %d terms, %d roots, max level %d\n", o.Len(), len(o.Roots()), o.MaxLevel())
	fmt.Fprintf(out, "corpus:   %d papers, %d indexed terms\n", c.Len(), a.sys.Index().Terms())
	cst := corpus.ComputeStats(c, a.sys.Analyzer())
	fmt.Fprintf(out, "tokens:   %d total, %.0f per paper, vocabulary %d\n", cst.TotalTokens, cst.MeanTokens, cst.Vocabulary)
	fmt.Fprintf(out, "citations: %d edges, %.1f refs/paper, max in-degree %d, %.0f%% uncited\n",
		cst.TotalCitations, cst.MeanOutDegree, cst.MaxInDegree, 100*cst.UncitedFraction)
	fmt.Fprintf(out, "evidence: %d terms, %d papers · years %d–%d\n",
		cst.EvidenceTerms, cst.EvidencePapers, cst.MinYear, cst.MaxYear)
	ctxs := a.cs.Contexts()
	fmt.Fprintf(out, "context set (%s): %d non-empty contexts\n", a.cs.Kind(), len(ctxs))
	minSize := a.sys.MinContextSize()
	fmt.Fprintf(out, "scored contexts (> %d papers): %d\n", minSize, a.matrix.NumContexts())
	var sum int
	for _, ctx := range ctxs {
		sum += a.cs.Size(ctx)
	}
	if len(ctxs) > 0 {
		fmt.Fprintf(out, "mean context size: %.1f papers\n", float64(sum)/float64(len(ctxs)))
	}
	return nil
}

// sim prints semantic similarity between two terms (by ID or exact name).
func (a *app) sim(out io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("sim: want exactly two term IDs")
	}
	t1, err := a.resolveTerm(args[0])
	if err != nil {
		return err
	}
	t2, err := a.resolveTerm(args[1])
	if err != nil {
		return err
	}
	o := a.sys.Ontology
	fmt.Fprintf(out, "%s %q (level %d, I=%.3f)\n", t1, o.Term(t1).Name, o.Level(t1), o.InformationContent(t1))
	fmt.Fprintf(out, "%s %q (level %d, I=%.3f)\n", t2, o.Term(t2).Name, o.Level(t2), o.InformationContent(t2))
	mica := o.MostInformativeCommonAncestor(t1, t2)
	if mica == "" {
		fmt.Fprintln(out, "no common ancestor (different namespaces)")
		return nil
	}
	fmt.Fprintf(out, "MICA: %s %q\n", mica, o.Term(mica).Name)
	fmt.Fprintf(out, "Resnik similarity: %.3f\n", o.ResnikSimilarity(t1, t2))
	fmt.Fprintf(out, "Lin similarity:    %.3f\n", o.LinSimilarity(t1, t2))
	return nil
}

// related prints the terms most Lin-similar to the given term.
func (a *app) related(out io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("related: missing term")
	}
	t, err := a.resolveTerm(join(args))
	if err != nil {
		return err
	}
	o := a.sys.Ontology
	type ts struct {
		id  ctxsearch.TermID
		lin float64
	}
	var all []ts
	for _, other := range o.TermIDs() {
		if other == t {
			continue
		}
		if lin := o.LinSimilarity(t, other); lin > 0 {
			all = append(all, ts{other, lin})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].lin != all[j].lin {
			return all[i].lin > all[j].lin
		}
		return all[i].id < all[j].id
	})
	fmt.Fprintf(out, "terms related to %s %q:\n", t, o.Term(t).Name)
	for i, e := range all {
		if i >= a.limit {
			break
		}
		fmt.Fprintf(out, "  [%.3f] %s %q\n", e.lin, e.id, o.Term(e.id).Name)
	}
	return nil
}

// cluster groups the top keyword results of a query with k-means and
// prints the labelled clusters — the automatically-derived contexts of the
// paper's §6 related work, for side-by-side comparison with ontology
// contexts.
func (a *app) cluster(out io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("cluster: missing query")
	}
	query := join(args)
	hits := ctxsearchBaseline(a.sys, query, 60)
	if len(hits) < 4 {
		fmt.Fprintf(out, "only %d results for %q — too few to cluster\n", len(hits), query)
		return nil
	}
	clusters, err := cluster.KMeans(a.sys.Analyzer(), hits, cluster.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d clusters over %d results for %q\n", len(clusters), len(hits), query)
	for i, cl := range clusters {
		fmt.Fprintf(out, "cluster %d [%s] — %d papers\n", i+1, strings.Join(cl.Label, ", "), len(cl.Docs))
		for j, id := range cl.Docs {
			if j >= 3 {
				fmt.Fprintf(out, "    … and %d more\n", len(cl.Docs)-3)
				break
			}
			p := a.sys.Corpus.Paper(id)
			fmt.Fprintf(out, "    PMID %d %.60s\n", p.PMID, p.Title)
		}
	}
	return nil
}

// ctxsearchBaseline returns the top-N TF-IDF hits' paper IDs.
func ctxsearchBaseline(sys *ctxsearch.System, query string, n int) []ctxsearch.PaperID {
	hits := sys.BaselineTFIDF(query, 0, n)
	out := make([]ctxsearch.PaperID, len(hits))
	for i, h := range hits {
		out[i] = h.Doc
	}
	return out
}

// export writes the corpus in an interchange format.
func (a *app) export(out io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("export: want <jsonl|gaf> <path>")
	}
	format, path := args[0], args[1]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "jsonl":
		err = corpus.WriteJSONL(f, a.sys.Corpus)
	case "gaf":
		err = corpus.WriteGAF(f, a.sys.Corpus)
	default:
		return fmt.Errorf("export: unknown format %q", format)
	}
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s export to %s\n", format, path)
	return nil
}

// resolveTerm accepts a term ID or an exact (case-insensitive) term name.
func (a *app) resolveTerm(s string) (ctxsearch.TermID, error) {
	o := a.sys.Ontology
	if t := o.Term(ctxsearch.TermID(s)); t != nil {
		return ctxsearch.TermID(s), nil
	}
	lower := strings.ToLower(s)
	for _, id := range o.TermIDs() {
		if strings.ToLower(o.Term(id).Name) == lower {
			return id, nil
		}
	}
	return "", fmt.Errorf("unknown term %q (use a GO:… ID or an exact name)", s)
}

func join(args []string) string {
	out := ""
	for i, a := range args {
		if i > 0 {
			out += " "
		}
		out += a
	}
	return out
}
