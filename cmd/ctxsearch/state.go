package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"ctxsearch"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/store"
)

// app is the state every one-shot command, serve and shard work on: what
// load opened from the state file or built in-process, and the options it
// was loaded with.
type app struct {
	*options
	sys *ctxsearch.System
	cs  *ctxsearch.ContextSet
	// matrix is the CSR prestige matrix: scoring's, or the opened state
	// file's.
	matrix *ctxsearch.Matrix
	// mapped is the open state file sys, cs and matrix alias; nil when they
	// were built in-process.
	mapped *store.Mapped
	engine *ctxsearch.Engine
}

// contextSets and scoreFns map the -set and -score names to the
// constructors the build calls; validate refuses a name neither holds.
var (
	contextSets = map[string]func(*ctxsearch.System) *ctxsearch.ContextSet{
		"text":    (*ctxsearch.System).BuildTextContextSet,
		"pattern": (*ctxsearch.System).BuildPatternContextSet,
	}
	scoreFns = map[string]func(*ctxsearch.System, *ctxsearch.ContextSet) *ctxsearch.Matrix{
		"text":     (*ctxsearch.System).ScoreText,
		"citation": (*ctxsearch.System).ScoreCitation,
		"pattern":  (*ctxsearch.System).ScorePattern,
	}
)

// load is the one road from the flags to (sys, cs, matrix), taken by serve,
// shard and every one-shot command. When -state names an existing file it
// is opened and a frozen system bound to it (openState). Otherwise the full
// offline build runs and saves the state if a path was given.
func load(o *options) (*app, error) {
	if o.statePath != "" {
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

// openState binds the state file with ctxsearch.OpenState, which refuses a
// state built from other inputs than the ontology and corpus the flags
// produce. A state of another context-set kind than -set is refused as
// well.
func openState(o *options) (*app, error) {
	onto, c, recordInputs, err := loadInputs(o)
	if err != nil {
		return nil, err
	}
	sys, m, mapped, err := ctxsearch.OpenState(o.statePath, onto, c, o.score, o.cfg)
	if err != nil {
		return nil, err
	}
	a := &app{options: o, sys: sys, cs: m.ContextSet(), matrix: m, mapped: mapped}
	// Kind names are the -set names with "-based" appended.
	if got, want := a.cs.Kind().String(), o.set+"-based"; got != want {
		a.close()
		return nil, fmt.Errorf("loading %s: the state holds a %s context set, -set asks for %s — pass the -set it was built with, or rebuild it with `ctxsearch build -state …`", o.statePath, got, want)
	}
	recordInputs(sys)
	return a, nil
}

// buildState runs the offline build — analysis, context set, prestige
// scores — and, when -state is given, saves the result with the text-index
// postings and DF table, so the next boot maps the file instead.
func buildState(o *options) (*app, error) {
	onto, c, recordInputs, err := loadInputs(o)
	if err != nil {
		return nil, err
	}
	sys, err := ctxsearch.NewSystem(onto, c, o.cfg)
	if err != nil {
		return nil, fmt.Errorf("building system: %w", err)
	}
	recordInputs(sys)
	a := &app{options: o, sys: sys, cs: contextSets[o.set](sys)}
	a.matrix = scoreFns[o.score](sys, a.cs)
	if o.statePath != "" {
		if err := ctxsearch.SaveState(o.statePath, sys, o.score, a.matrix); err != nil {
			return nil, err
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

// loadInputs produces the ontology and corpus (loadOrGenData), nearly all
// of a state boot, and the function that records producing them as a
// system's first build stage — "generate", or "load" when both came from
// files — so the -v summary adds up to the process's wall time.
func loadInputs(o *options) (*ctxsearch.Ontology, *ctxsearch.Corpus, func(*ctxsearch.System), error) {
	start := time.Now()
	onto, c, generated, err := loadOrGenData(o, false)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("building system: %w", err)
	}
	took, stage := time.Since(start), "load"
	if generated {
		stage = "generate"
	}
	return onto, c, func(sys *ctxsearch.System) { sys.BuildStats().AddFirst(stage, took, c.Len(), "papers") }, nil
}

// loadOrGenData resolves the ontology and corpus without analysing them —
// the raw inputs both the full build and the mapped-state cold start need —
// loading each from its file when that exists (unless forceGenerate),
// generating and saving it otherwise, and reports whether either had to be
// generated.
func loadOrGenData(opts *options, forceGenerate bool) (o *ctxsearch.Ontology, c *ctxsearch.Corpus, generated bool, err error) {
	cfg, corpusPath, oboPath := opts.cfg, opts.corpusPath, opts.oboPath
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
		ocfg := ontology.DefaultGenConfig()
		ocfg.Seed, ocfg.NumTerms, ocfg.MaxDepth = cfg.Seed, cfg.OntologyTerms, cfg.MaxDepth
		gen, err := ontology.Generate(ocfg)
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
