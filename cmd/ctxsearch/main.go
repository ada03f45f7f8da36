// Command ctxsearch is the interactive front end of the library: it
// generates (or loads) a corpus + ontology, builds a context paper set,
// computes prestige scores with a chosen function, and answers queries.
//
// Usage:
//
//	ctxsearch [flags] <command> [flags] [args]
//
// Flags may come before or after the command, ahead of its arguments; a
// command that takes no arguments refuses any. `ctxsearch -h` lists every
// flag with its default.
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
// serve and shard take what a deployment sets: -addr, -debug-addr and
// -cache-entries, and for a coordinator -shard-urls. The request deadline,
// admission cap, HTTP timeouts and the coordinator's retries, budget,
// breakers and prober are constants of internal/server; the README's
// "Serving" section lists them in a table checked against the code.
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
	"strconv"

	"ctxsearch"
	"ctxsearch/internal/server"
	"ctxsearch/internal/store"
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

// options is what the flags set: the library's and the server's
// configurations, bound field by field, and the paths and names the commands
// read.
type options struct {
	cfg    ctxsearch.Config
	server server.Config

	corpusPath, oboPath, statePath, stateFormat string
	set, score                                  string
	limit                                       int
	boolean, verbose                            bool
	addr, debugAddr                             string
	// shardURLs makes serve a stateless coordinator; shardCount > 1 makes
	// shard serve range shardIndex of a multi-process deployment.
	shardURLs              string
	shardIndex, shardCount int
}

// flags binds every flag to its field of o.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("ctxsearch", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	o.cfg = ctxsearch.DefaultConfig()
	c := &o.cfg
	fs.IntVar(&c.Papers, "papers", c.Papers, "synthetic corpus size")
	fs.IntVar(&c.OntologyTerms, "terms", c.OntologyTerms, "synthetic ontology size")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "generator seed")
	fs.StringVar(&o.corpusPath, "corpus", "", "corpus gob file (load if present, else save)")
	fs.StringVar(&o.oboPath, "obo", "", "ontology OBO file (load if present, else save)")
	fs.StringVar(&o.set, "set", "text", "context set: text | pattern")
	fs.StringVar(&o.score, "score", "text", "prestige function: text | citation | pattern")
	fs.IntVar(&o.limit, "limit", 15, "max results")
	fs.BoolVar(&o.boolean, "boolean", false, "treat the search query as a boolean expression (AND/OR/NOT, \"phrases\", field:term)")
	fs.StringVar(&o.statePath, "state", "", "state file: context set, scores and text index (memory-mapped if present, else written after the build)")
	fs.StringVar(&o.stateFormat, "state-format", "v5", fmt.Sprintf("state file format: version %d, for which v5 is the one accepted spelling (bench/deploy.go passes it)", store.Version))
	fs.IntVar(&c.BuildWorkers, "build-workers", 0, "offline-build parallelism (0 = GOMAXPROCS; output identical at any setting)")
	fs.BoolVar(&o.verbose, "v", false, "print the offline-build timing summary")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address for serve")
	// Unset, -cache-entries leaves server.Config's zero, the default cache.
	fs.Func("cache-entries", fmt.Sprintf("serve: /search result-cache capacity in `entries` (default %d; <=0 disables caching)", server.DefaultCacheEntries), func(v string) error {
		n, err := strconv.Atoi(v)
		if n <= 0 {
			n = -1
		}
		o.server.CacheEntries = n
		return err
	})
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve: /debug/pprof listen address (empty = profiling off; never expose publicly)")
	fs.StringVar(&o.shardURLs, "shard-urls", "", "serve: run as a coordinator over these comma-separated shard base URLs")
	fs.IntVar(&o.shardIndex, "shard-index", 0, "shard: which paper range this process serves (0-based)")
	fs.IntVar(&o.shardCount, "shard-count", 1, "shard: total number of shard processes")
	return fs
}

// handler runs one command on the parsed options and its arguments.
type handler func(ctx context.Context, o *options, out io.Writer, args []string) error

// command is one entry of the command table: its handler, and how many
// arguments it takes — exactly args, or one or more when args < 0.
type command struct {
	args  int
	usage string
	run   handler
}

var commands = map[string]command{
	"generate": {0, "", generateCmd},
	"build":    {0, "", buildCmd},
	"serve":    {0, "", serveCmd},
	"shard":    {0, "", serveCmd},
	"stats":    {0, "", query((*app).stats)},
	"search":   {-1, "<query>", query((*app).search)},
	"contexts": {-1, "<query>", query((*app).contexts)},
	"related":  {-1, "<term>", query((*app).related)},
	"cluster":  {-1, "<query>", query((*app).cluster)},
	"inspect":  {1, "exactly one paper ID", query((*app).inspect)},
	"sim":      {2, "exactly two term IDs", query((*app).sim)},
	"export":   {2, "<jsonl|gaf> <path>", query((*app).export)},
}

// runCtx is run with a caller-supplied base context, so tests can stop a
// serve command the way a SIGTERM would.
func runCtx(ctx context.Context, args []string, out io.Writer) error {
	var o options
	fs := o.flags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	name := fs.Arg(0)
	// Flags may follow the command as well; what is left are its arguments.
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}
	cmd, err := o.validate(fs, name, fs.Args())
	if err != nil {
		return err
	}
	return cmd.run(ctx, &o, out, fs.Args())
}

// validate refuses, before anything is generated, built, opened or written,
// a command line that would otherwise be ignored in part or fail late: an
// unknown command, a wrong number of arguments, an unknown -set, -score,
// -state-format or export format, or a shard flag on the command that does
// not read it.
func (o *options) validate(fs *flag.FlagSet, name string, args []string) (command, error) {
	cmd, ok := commands[name]
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	switch {
	case !ok:
		return cmd, fmt.Errorf("unknown command %q", name)
	case cmd.args == 0 && len(args) > 0:
		return cmd, fmt.Errorf("%s takes no arguments, got %q", name, args)
	case cmd.args > 0 && len(args) != cmd.args, cmd.args < 0 && len(args) == 0:
		return cmd, fmt.Errorf("%s: want %s", name, cmd.usage)
	// Export creates its path, so a late refusal would truncate the file.
	case name == "export" && exporters[args[0]] == nil:
		return cmd, fmt.Errorf("export: unknown format %q (jsonl | gaf)", args[0])
	case contextSets[o.set] == nil:
		return cmd, fmt.Errorf("unknown context set %q (-set text | pattern)", o.set)
	case scoreFns[o.score] == nil:
		return cmd, fmt.Errorf("unknown score function %q (-score text | citation | pattern)", o.score)
	case o.stateFormat != "v5":
		return cmd, fmt.Errorf("unknown -state-format %q: the state format is version %d, and v5 is the one spelling accepted (bench/deploy.go passes it)", o.stateFormat, store.Version)
	// A shard flag on the wrong command would be dropped, and the process
	// would serve the whole corpus (or coordinate) where a range was meant.
	case name == "serve" && (given["shard-index"] || given["shard-count"]):
		return cmd, fmt.Errorf("serve: -shard-index and -shard-count select a paper range of the shard command (ctxsearch -shard-index I -shard-count N shard)")
	case name == "shard" && given["shard-urls"]:
		return cmd, fmt.Errorf("shard: -shard-urls makes a coordinator, which is the serve command; a shard serves one paper range")
	case name == "shard" && (o.shardCount < 1 || o.shardIndex < 0 || o.shardIndex >= o.shardCount):
		return cmd, fmt.Errorf("shard: need 0 <= -shard-index < -shard-count, got %d of %d", o.shardIndex, o.shardCount)
	}
	return cmd, nil
}

// generateCmd generates the corpus and ontology and saves them to -corpus
// and -obo.
func generateCmd(_ context.Context, o *options, out io.Writer, _ []string) error {
	onto, c, _, err := loadOrGenData(o, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "generated %d papers over %d ontology terms (seed %d)\n", c.Len(), onto.Len(), o.cfg.Seed)
	return nil
}

// buildCmd runs the offline build, whether or not -state exists, and saves
// the state when -state is given.
func buildCmd(_ context.Context, o *options, out io.Writer, _ []string) error {
	a, err := buildState(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built %s context set (%d contexts) with %q scores (%d scored contexts)\n",
		o.set, len(a.cs.Contexts()), o.score, a.matrix.NumContexts())
	if o.statePath != "" {
		fmt.Fprintf(out, "state saved to %s\n", o.statePath)
	}
	if o.verbose {
		fmt.Fprintln(out, a.sys.BuildStats().Summary())
	}
	return nil
}

// query makes a one-shot command's handler: it opens or builds the state
// (load), binds the engine, and answers.
func query(f func(*app, io.Writer, []string) error) handler {
	return func(_ context.Context, o *options, out io.Writer, args []string) error {
		a, err := load(o)
		if err != nil {
			return err
		}
		defer a.close()
		a.engine = a.sys.Engine(a.matrix)
		if o.verbose {
			fmt.Fprintln(out, a.sys.BuildStats().Summary())
		}
		return f(a, out, args)
	}
}
