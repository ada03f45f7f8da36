// Package ctxsearch is the public façade of the context-based literature
// search library — a from-scratch reproduction of "Evaluating Different
// Ranking Functions for Context-Based Literature Search" (ICDE 2007).
//
// The library implements the paper's five tasks end to end:
//
//  1. assign papers to ontology-term contexts (text-based and pattern-based
//     context paper sets),
//  2. compute per-context prestige scores (citation-, text-, and
//     pattern-based score functions),
//  3. locate search contexts for a keyword query,
//  4. search within the selected contexts, and
//  5. rank results by R = w_p·prestige + w_m·text-match.
//
// A typical session:
//
//	sys, err := ctxsearch.NewSyntheticSystem(ctxsearch.DefaultConfig())
//	// or ctxsearch.NewSystem(yourOntology, yourCorpus, cfg)
//	cs := sys.BuildTextContextSet()
//	scores := sys.ScoreText(cs)
//	engine := sys.Engine(scores)
//	results := engine.Search("regulation of rna synthesis", ctxsearch.SearchOptions{})
package ctxsearch

import (
	"fmt"
	"sync"
	"time"

	"ctxsearch/internal/buildstats"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/par"
	"ctxsearch/internal/pattern"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/search"
	"ctxsearch/internal/store"
	"ctxsearch/internal/vector"
)

// Re-exported types so callers outside this module can name everything the
// façade returns.
type (
	// Ontology is the context hierarchy (a GO-like is-a DAG).
	Ontology = ontology.Ontology
	// TermID identifies an ontology term.
	TermID = ontology.TermID
	// Term is one ontology term.
	Term = ontology.Term
	// Corpus is the paper collection.
	Corpus = corpus.Corpus
	// Paper is one full-text publication.
	Paper = corpus.Paper
	// PaperID identifies a paper.
	PaperID = corpus.PaperID
	// ContextSet is a paper-to-context assignment.
	ContextSet = contextset.ContextSet
	// Matrix holds per-context per-paper prestige scores, one CSR run per
	// scored context: what scoring returns, the query path reads and the
	// state file stores.
	Matrix = prestige.Matrix
	// Scorer computes prestige scores for a context.
	Scorer = prestige.Scorer
	// Engine is the context-based search engine.
	Engine = search.Engine
	// SearchResult is one ranked search result.
	SearchResult = search.Result
	// SearchOptions configure a search invocation.
	SearchOptions = search.Options
	// ContextScore is one selected search context with its match score.
	ContextScore = search.ContextScore
	// Hit is one baseline keyword-search result.
	Hit = index.Hit
)

// Config is what a caller sets: the synthetic corpus, the relevancy
// weights and the build's parallelism. The paper fixes one setting for each
// score function and set construction — PageRank's d, the text score's
// weights, the pattern settings, the set thresholds — and each is a
// constant of the package that reads it; the small-context cutoff follows
// the corpus size (System.MinContextSize).
type Config struct {
	// Synthetic-data parameters (used by NewSyntheticSystem).
	Seed          int64
	OntologyTerms int
	MaxDepth      int
	Papers        int

	// Relevancy combines prestige and matching at query time.
	Relevancy search.Weights
	// BuildWorkers bounds the parallelism of the offline build — corpus
	// analysis (tokens, dictionary and TF-IDF rows), inverted-index
	// construction, context-set assembly and prestige scoring (0 = GOMAXPROCS, 1 = serial). The built structures are
	// bit-identical at any setting: papers are sharded into contiguous ID
	// ranges and per-shard results merge deterministically, and per-context
	// scoring is deterministic and independent.
	BuildWorkers int
}

// DefaultConfig returns the experiments' configuration at a laptop-friendly
// scale (2,000 papers, 400 terms).
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		OntologyTerms: 400,
		MaxDepth:      9,
		Papers:        2000,
		Relevancy:     search.DefaultWeights(),
	}
}

// minContextSize is the small-context exclusion cutoff for a corpus of n
// papers, mirroring the paper's ≤100-papers exclusion scaled to the corpus:
// 0.15% of it (the paper's 100/72027), at least 5.
func minContextSize(n int) int {
	return max(n*15/10000, 5)
}

// BuildStats is the offline-build timing summary (re-exported from the
// internal buildstats package). Retrieve a system's with System.BuildStats.
type BuildStats = buildstats.Stats

// System bundles the analysed corpus, the ontology and every index the
// scorers need. Construct with NewSystem or NewSyntheticSystem.
type System struct {
	cfg      Config
	Ontology *Ontology
	Corpus   *Corpus

	analyzer *corpus.Analyzer
	index    *index.Index
	stats    *buildstats.Stats

	// posIndex is built by posOnce on first use: only pattern-based stages
	// read positional postings, so a text-only build and plain vector serving
	// never pay for them.
	posOnce  sync.Once
	posIndex *pattern.PosIndex
	// patterns, made on first use, holds each term's one pattern set for
	// the pattern-based context set and the pattern scorer.
	patternOnce sync.Once
	patterns    *pattern.Memo

	// Scorers are cached: the citation and text scorers embed the corpus
	// citation graph and the text scorer's ID-keyed tables, which are
	// expensive to extract and immutable — callers (and the experiments
	// harness) share one instance.
	citationOnce sync.Once
	citation     *prestige.CitationScorer
	textOnce     sync.Once
	text         *prestige.TextScorer
}

// NewSystem analyses a user-provided ontology and corpus, fanning the build
// out to Config.BuildWorkers workers (0 = GOMAXPROCS). The built indexes
// are bit-identical at every worker count; timing lands in BuildStats.
func NewSystem(o *Ontology, c *Corpus, cfg Config) (*System, error) {
	if o == nil || o.Len() == 0 {
		return nil, fmt.Errorf("ctxsearch: ontology is empty")
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("ctxsearch: corpus is empty")
	}
	workers := cfg.BuildWorkers
	st := buildstats.New(par.Workers(c.Len(), workers))
	s := &System{cfg: cfg, Ontology: o, Corpus: c, stats: st}
	st.Time("analyze", c.Len(), "papers", func() {
		s.analyzer = corpus.NewAnalyzerWorkers(c, workers)
	})
	var err error
	st.Time("index", c.Len(), "papers", func() {
		s.index, err = index.BuildWorkers(s.analyzer, workers)
	})
	if err != nil {
		return nil, fmt.Errorf("ctxsearch: building the index: %w", err)
	}
	return s, nil
}

// NewFrozenSystem binds a system to pre-built text-index postings and a
// document-frequency table — the artefacts a state file carries — so
// boot skips every per-paper analysis stage of NewSystem. The analyzer is
// frozen: the DF table is its dictionary, which numbers the parts' terms;
// a paper's token stream is tokenized on its first boolean phrase or
// field check; and TF-IDF rows are recomputed per call, bit-identically to
// the eager build, for the one-shot `stats` and `cluster` commands and
// pattern-based stages, never for a served request. The DF table weights
// every posting as well as every query, so it must count the corpus's
// papers. The inverted index binds the borrowed CSR arrays in O(terms) and
// one read of their postings, and the positional index is built only if a
// pattern-based stage asks for it. Query results are byte-identical to a
// NewSystem over the same corpus.
func NewFrozenSystem(o *Ontology, c *Corpus, parts *index.Parts, df *vector.DF, cfg Config) (*System, error) {
	if o == nil || o.Len() == 0 {
		return nil, fmt.Errorf("ctxsearch: ontology is empty")
	}
	if c == nil || c.Len() == 0 {
		return nil, fmt.Errorf("ctxsearch: corpus is empty")
	}
	if parts == nil || df == nil {
		return nil, fmt.Errorf("ctxsearch: frozen system needs index parts and a DF table")
	}
	if docs, _ := df.Counts(); docs != c.Len() {
		return nil, fmt.Errorf("ctxsearch: the DF table counts %d documents, the corpus has %d papers", docs, c.Len())
	}
	st := buildstats.New(par.Workers(c.Len(), cfg.BuildWorkers))
	s := &System{cfg: cfg, Ontology: o, Corpus: c, stats: st}
	var err error
	st.Time("bind-index", len(df.Terms()), "terms", func() {
		s.analyzer = corpus.NewAnalyzerFrozen(c, df)
		s.index, err = index.FromParts(s.analyzer, parts)
	})
	if err != nil {
		return nil, fmt.Errorf("ctxsearch: binding index: %w", err)
	}
	return s, nil
}

// SaveState writes the state file a later OpenState binds: the context set
// m scores, m itself under the score-function name scoreFn, sys's
// text-index postings and DF table, and the fingerprint of sys's ontology
// and corpus. The write is crash-safe (temp file, fsync, rename), and
// fingerprinting and saving are timed as the build stages "fingerprint" and
// "state-save".
func SaveState(path string, sys *System, scoreFn string, m *Matrix) error {
	st := &store.State{
		ContextSet: m.ContextSet(),
		Matrices:   map[string]*Matrix{scoreFn: m},
		Index:      sys.index.Parts(),
		DF:         sys.analyzer.DF(),
	}
	sys.stats.Time("fingerprint", sys.Corpus.Len(), "papers", func() {
		st.Fingerprint = store.Fingerprint(sys.Ontology, sys.Corpus)
	})
	var err error
	sys.stats.Time("state-save", 0, "", func() { err = store.SaveFile(path, st) })
	if err != nil {
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return nil
}

// OpenState memory-maps a state file (byte-copies it where mmap is
// unavailable) and binds a frozen system (NewFrozenSystem) and the matrix
// of score function scoreFn to its arrays: no paper is analysed. The state
// must have been built from onto and c: its fingerprint is compared with
// theirs, and a mismatch is an error naming both. The build stages
// "bind-index", "fingerprint" and "state-map" are timed in the system's
// BuildStats. The returned mapping backs the system and the matrix; close
// it once neither is used any more.
func OpenState(path string, onto *Ontology, c *Corpus, scoreFn string, cfg Config) (_ *System, _ *Matrix, _ *store.Mapped, err error) {
	t0 := time.Now()
	mapped, err := store.Open(path, onto)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("loading %s: %w", path, err)
			_ = mapped.Close()
		}
	}()
	mapDur := time.Since(t0)
	m, err := mapped.Matrix(scoreFn)
	if err != nil {
		return nil, nil, nil, err
	}
	parts, err := mapped.IndexParts()
	if err != nil {
		return nil, nil, nil, err
	}
	df, err := mapped.DF()
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := NewFrozenSystem(onto, c, parts, df, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var fp [32]byte
	sys.stats.Time("fingerprint", c.Len(), "papers", func() { fp = store.Fingerprint(onto, c) })
	if fp != mapped.Fingerprint() {
		return nil, nil, nil, fmt.Errorf("the state was built from inputs with fingerprint %x, the ontology and corpus loaded here have %x — pass the -seed, -papers, -terms, -corpus and -obo it was built with, or rebuild it with `ctxsearch build -state …`", mapped.Fingerprint(), fp)
	}
	sys.stats.Add("state-map", mapDur, 0, "")
	return sys, m, mapped, nil
}

// NewSyntheticSystem generates a deterministic synthetic ontology + corpus
// at the configured scale and analyses them — the substitution for the
// paper's 72k PubMed papers and the Gene Ontology. Generation is recorded
// as the first build stage, "generate".
func NewSyntheticSystem(cfg Config) (*System, error) {
	start := time.Now()
	ocfg := ontology.DefaultGenConfig()
	ocfg.Seed, ocfg.NumTerms, ocfg.MaxDepth = cfg.Seed, cfg.OntologyTerms, cfg.MaxDepth
	o, err := ontology.Generate(ocfg)
	if err != nil {
		return nil, fmt.Errorf("ctxsearch: generating ontology: %w", err)
	}
	gen := corpus.DefaultGenConfig(cfg.Papers)
	gen.Seed = cfg.Seed
	c, err := corpus.Generate(o, gen)
	if err != nil {
		return nil, fmt.Errorf("ctxsearch: generating corpus: %w", err)
	}
	took := time.Since(start)
	s, err := NewSystem(o, c, cfg)
	if err != nil {
		return nil, err
	}
	s.stats.AddFirst("generate", took, c.Len(), "papers")
	return s, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// MinContextSize returns the small-context exclusion cutoff: contexts of
// at most this many papers are not scored.
func (s *System) MinContextSize() int { return minContextSize(s.Corpus.Len()) }

// BuildStats returns the system's offline-build timing record. Stages
// recorded after construction (context sets, prestige scoring) append to the
// same record; Summary() renders the whole pipeline.
func (s *System) BuildStats() *BuildStats { return s.stats }

// BuildTextContextSet constructs the text-based context paper set (§4).
func (s *System) BuildTextContextSet() *ContextSet {
	var cs *ContextSet
	s.stats.Time("contextset-text", s.Corpus.Len(), "papers", func() {
		cs = contextset.BuildTextBased(s.index, s.Ontology, s.cfg.BuildWorkers)
	})
	return cs
}

// BuildPatternContextSet constructs the simplified pattern-based context
// paper set (§4).
func (s *System) BuildPatternContextSet() *ContextSet {
	var cs *ContextSet
	m := s.patternMemo() // outside the timed stage: the index's first use records its own
	s.stats.Time("contextset-pattern", s.Corpus.Len(), "papers", func() {
		cs = contextset.BuildPatternBased(m, s.Ontology, s.cfg.BuildWorkers)
	})
	return cs
}

// CitationScorer returns the citation-based prestige scorer (§3.1), built
// once per System — it embeds the corpus-wide citation graph. Use
// WithTeleport / WithCrossContext for ablation variants sharing the graph.
func (s *System) CitationScorer() *prestige.CitationScorer {
	s.citationOnce.Do(func() {
		s.citation = prestige.NewCitationScorer(s.Corpus)
	})
	return s.citation
}

// TextScorer returns the text-based prestige scorer (§3.2), built once per
// System — it embeds the citation graph and its ID-keyed section and author
// tables.
func (s *System) TextScorer() *prestige.TextScorer {
	s.textOnce.Do(func() {
		s.text = prestige.NewTextScorer(s.analyzer)
	})
	return s.text
}

// PatternScorer returns the pattern-based prestige scorer (§3.3) over the
// pattern memo the pattern-based context set shares.
func (s *System) PatternScorer() *prestige.PatternScorer {
	return prestige.NewPatternScorer(s.patternMemo())
}

// patternMemo returns the System's pattern memo over PosIndex.
func (s *System) patternMemo() *pattern.Memo {
	s.patternOnce.Do(func() {
		s.patterns = pattern.NewMemo(s.PosIndex(), s.Ontology)
	})
	return s.patterns
}

// score runs a scorer over the contexts of a set larger than minSize and
// applies hierarchical max propagation (§3). Scoring fans out across
// contexts per Config.BuildWorkers.
func (s *System) score(sc prestige.Scorer, cs *ContextSet, minSize int) *Matrix {
	var out *Matrix
	s.stats.Time("score-"+sc.Name(), len(cs.Contexts()), "contexts", func() {
		out = prestige.PropagateMax(s.Ontology, prestige.Score(sc, cs, minSize, s.cfg.BuildWorkers))
	})
	return out
}

// ScoreCitation computes citation-based prestige scores over a context set.
func (s *System) ScoreCitation(cs *ContextSet) *Matrix {
	return s.score(s.CitationScorer(), cs, s.MinContextSize())
}

// ScoreText computes text-based prestige scores over a context set.
func (s *System) ScoreText(cs *ContextSet) *Matrix {
	return s.score(s.TextScorer(), cs, s.MinContextSize())
}

// ScorePattern computes pattern-based prestige scores over a context set.
func (s *System) ScorePattern(cs *ContextSet) *Matrix {
	return s.score(s.PatternScorer(), cs, s.MinContextSize())
}

// Engine assembles the context-based search engine over prestige scores —
// the ones a Score method returned, or a state file's — and the context set
// they score.
func (s *System) Engine(m *Matrix) *Engine {
	return search.NewEngine(s.index, m, s.cfg.Relevancy)
}

// EngineFrozen is Engine. It panics when cs is not the set m scores.
//
// Deprecated: use Engine, which takes the set from the matrix.
func (s *System) EngineFrozen(cs *ContextSet, m *Matrix) *Engine {
	if cs != m.ContextSet() {
		panic("ctxsearch: EngineFrozen: the context set is not the one the matrix scores")
	}
	return s.Engine(m)
}

// BaselineTFIDF runs the whole-corpus TF-IDF keyword baseline.
func (s *System) BaselineTFIDF(query string, threshold float64, limit int) []Hit {
	return search.BaselineTFIDF(s.index, query, threshold, limit)
}

// BaselinePubMed runs the PubMed-style unranked baseline (descending PMID).
func (s *System) BaselinePubMed(query string) []PaperID {
	return search.BaselinePubMed(s.index, query)
}

// Analyzer exposes the analysed corpus features (advanced use: custom
// scorers and metrics).
func (s *System) Analyzer() *corpus.Analyzer { return s.analyzer }

// Index exposes the inverted index (advanced use).
func (s *System) Index() *index.Index { return s.index }

// PosIndex exposes the positional index (advanced use). The first call
// builds it, recording a "posindex" build stage — on a frozen system the
// only stage of a mapped-state boot that re-reads paper text.
func (s *System) PosIndex() *pattern.PosIndex {
	s.posOnce.Do(func() {
		s.stats.Time("posindex", s.Corpus.Len(), "papers", func() {
			s.posIndex = pattern.NewPosIndex(s.analyzer)
		})
	})
	return s.posIndex
}
