package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"ctxsearch"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/store"
)

// app is the state every command but generate and the coordinator works on:
// what load opened from the state file or built in-process.
type app struct {
	sys *ctxsearch.System
	cs  *ctxsearch.ContextSet
	// matrix is the CSR prestige matrix: scoring's, or the opened state
	// file's.
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

// dataOpts names the inputs of load: where the corpus, the ontology and the
// state come from, and what to build when there is no state file yet.
type dataOpts struct {
	cfg                                              ctxsearch.Config
	corpusPath, oboPath, setKind, scoreFn, statePath string
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
// (ctxsearch.NewFrozenSystem). Producing the inputs, nearly all of a boot,
// is its first stage, as in buildSystem.
func openState(o dataOpts) (_ *app, err error) {
	t0 := time.Now()
	onto, c, generated, err := loadOrGenData(o, false)
	if err != nil {
		return nil, fmt.Errorf("building system: %w", err)
	}
	inputsDur := time.Since(t0)
	t0 = time.Now()
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
	if a.matrix, err = mapped.Matrix(o.scoreFn); err != nil {
		return nil, err
	}
	a.cs = a.matrix.ContextSet()
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
	a.sys.BuildStats().AddFirst(inputsStage(generated), inputsDur, c.Len(), "papers")
	return a, nil
}

// buildState runs the offline build — analysis, context set, prestige
// scores — and, when -state is given, saves the result with the text-index
// postings and DF table, so the next boot maps the file instead.
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
	switch o.scoreFn {
	case "text":
		a.matrix = sys.ScoreText(a.cs)
	case "citation":
		a.matrix = sys.ScoreCitation(a.cs)
	case "pattern":
		a.matrix = sys.ScorePattern(a.cs)
	default:
		return nil, fmt.Errorf("unknown score function %q", o.scoreFn)
	}
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
	sys.BuildStats().AddFirst(inputsStage(generated), took, c.Len(), "papers")
	return sys, nil
}

// inputsStage names the build stage that produced a system's inputs:
// "generate", or "load" when both came from files.
func inputsStage(generated bool) string {
	if generated {
		return "generate"
	}
	return "load"
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
