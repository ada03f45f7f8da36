//go:build linux

package main

import (
	"context"
	"fmt"
	"time"

	"ctxsearch"
	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/search"
	"ctxsearch/internal/store"
)

// The corpus every run builds: two fifths of the ctxsearch default's papers
// and terms, so that the offline build, which a run repeats three times,
// takes under two seconds and the driver's 114 runs fit its hour even when
// the host is slow. The binary gets the same numbers as flags.
//
// The corpus is the same on every run; the run's seed picks the requests
// made of it. Corpora of different seeds differ in how many papers their
// contexts hold, which moved library_batch p50_ms by a fifth either way from
// one seed to the next — more than any bound — while telling nothing about
// the code.
const (
	corpusPapers = 800
	corpusTerms  = 160
	corpusSeed   = 1
)

// corpusConfig is the library's configuration for the benchmark's corpus.
func corpusConfig() ctxsearch.Config {
	cfg := ctxsearch.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.Papers = corpusPapers
	cfg.OntologyTerms = corpusTerms
	return cfg
}

// generateData makes the ontology and corpus exactly as the binary does for
// -papers/-terms/-seed (cmd/ctxsearch loadOrGenData), so an in-process
// system over the state file the binary built sees the same papers.
func generateData(cfg ctxsearch.Config) (*ontology.Ontology, *corpus.Corpus, error) {
	o, err := ontology.Generate(ontology.GenConfig{
		Seed: cfg.Seed, NumTerms: cfg.OntologyTerms, MaxDepth: cfg.MaxDepth, SecondParentProb: 0.12,
	})
	if err != nil {
		return nil, nil, err
	}
	gcfg := corpus.DefaultGenConfig(cfg.Papers)
	gcfg.Seed = cfg.Seed
	c, err := corpus.Generate(o, gcfg)
	if err != nil {
		return nil, nil, err
	}
	return o, c, nil
}

// library is the system opened in-process from the state file through the
// public functions: the library_batch workload's system under test, and for
// the HTTP workloads the oracle and the subject of the traced pass.
type library struct {
	cfg    ctxsearch.Config
	onto   *ontology.Ontology
	corpus *corpus.Corpus
	mapped *store.Mapped
	sys    *ctxsearch.System
	cs     *ctxsearch.ContextSet
	matrix *ctxsearch.Matrix
	parts  *index.Parts
	eng    *search.Engine
}

// openTimes splits one in-process open into the store.* per-layer metrics.
type openTimes struct {
	open, bind time.Duration
}

// openLibrary maps statePath and binds a frozen system and engine to it,
// the steps serveFromState takes in the binary.
func openLibrary(cfg ctxsearch.Config, o *ontology.Ontology, c *corpus.Corpus, statePath string) (*library, openTimes, error) {
	var t openTimes
	t0 := time.Now()
	mapped, err := store.Open(statePath, o)
	if err != nil {
		return nil, t, fmt.Errorf("opening %s: %w", statePath, err)
	}
	t.open = time.Since(t0)
	l := &library{cfg: cfg, onto: o, corpus: c, mapped: mapped}
	t0 = time.Now()
	if err := l.bind(); err != nil {
		_ = mapped.Close()
		return nil, t, fmt.Errorf("binding %s: %w", statePath, err)
	}
	t.bind = time.Since(t0)
	return l, t, nil
}

func (l *library) bind() error {
	var err error
	if l.cs, err = l.mapped.ContextSet(); err != nil {
		return err
	}
	if l.matrix, err = l.mapped.Matrix("text"); err != nil {
		return err
	}
	if l.parts, err = l.mapped.IndexParts(); err != nil {
		return err
	}
	if l.parts == nil {
		return fmt.Errorf("state carries no text index")
	}
	df, err := l.mapped.DF()
	if err != nil {
		return err
	}
	if l.sys, err = ctxsearch.NewFrozenSystem(l.onto, l.corpus, l.parts, df, l.cfg); err != nil {
		return err
	}
	l.eng = l.sys.EngineFrozen(l.cs, l.matrix)
	return nil
}

func (l *library) close() { _ = l.mapped.Close() }

// contextNames returns the names of the scored contexts, the words every
// generated query is made of.
func (l *library) contextNames() []string {
	var names []string
	for _, id := range l.matrix.Contexts() {
		if t := l.onto.Term(id); t != nil {
			names = append(names, t.Name)
		}
	}
	return names
}

// run executes a request the way its workload's server would.
func (l *library) run(ctx context.Context, r request, opts search.Options) ([]search.Result, error) {
	if r.Boolean {
		return l.eng.SearchBooleanContext(ctx, r.Query, opts)
	}
	return l.eng.SearchContext(ctx, r.Query, opts)
}

// usable reports whether a generated string returns at least one row.
func (l *library) usable(boolean bool) func(string) bool {
	return func(q string) bool {
		res, err := l.run(context.Background(), request{Query: q, Boolean: boolean}, search.Options{Limit: 1})
		return err == nil && len(res) > 0
	}
}

// unionOf rebuilds, from public functions, the paper set Engine.SearchContext
// restricts its index pass to: the union of the selected contexts' papers.
func (l *library) unionOf(ctxs []search.ContextScore) bitset.Set {
	var union bitset.Set
	for _, c := range ctxs {
		union.UnionWith(l.cs.PaperBitset(c.Context))
	}
	return union
}
