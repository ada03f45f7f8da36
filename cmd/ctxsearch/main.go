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
//	              it is written after the build. Either way queries read
//	              the same flat arrays: the build produces them, the file
//	              stores them verbatim (optional)
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
//	                      requests are bounded by capacity + range calls*ratio
//	                      (a page makes one range call per range), so retry
//	                      storms cannot multiply overload
//	                      (default 10; <=0 unbounded)
//	-retry-ratio R        tokens deposited per range call's first attempt
//	                      (default 0.1)
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
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ctxsearch"
	"ctxsearch/internal/resilience"
	"ctxsearch/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ctxsearch:", err)
		os.Exit(1)
	}
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
	stateFormat := fs.String("state-format", "v5", "state file format: version 7, for which v5 is the one accepted spelling (bench/deploy.go passes it)")
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
	retryRatio := fs.Float64("retry-ratio", resilience.DefaultBudgetRatio, "coordinator: retry tokens deposited per range call's first attempt (steady-state retry fraction)")
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
		return fmt.Errorf("unknown -state-format %q: the state format is version 7, and v5 is the one spelling accepted (bench/deploy.go passes it)", *stateFormat)
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
	a.engine = a.sys.Engine(a.matrix)
	if *verbose {
		fmt.Fprintln(out, a.sys.BuildStats().Summary())
	}
	return query(a, out, rest)
}
