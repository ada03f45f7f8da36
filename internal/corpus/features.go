package corpus

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ctxsearch/internal/par"
	"ctxsearch/internal/textproc"
	"ctxsearch/internal/vector"
)

// Features holds the analysed representation of one paper: per-section
// stemmed token streams and TF vectors, the whole-paper TF vector, and the
// author set. All ranking functions consume Features rather than raw text.
type Features struct {
	ID PaperID
	// Tokens holds the stemmed, stopword-filtered token stream per section.
	Tokens map[Section][]string
	// TF holds the raw term-frequency vector per section.
	TF map[Section]vector.Sparse
	// AllTF is the merged term-frequency vector over all sections.
	AllTF vector.Sparse
	// Authors is the normalised (lowercased) author set.
	Authors map[string]bool
}

// Analyzer tokenizes papers and maintains corpus-wide document frequencies.
// Build one with NewAnalyzerWorkers; it analyses every paper eagerly so DF tables
// are complete before any similarity is computed.
type Analyzer struct {
	corpus *Corpus
	tok    *textproc.Tokenizer
	// forms memoises the tokenizer per distinct raw word of the paper text;
	// see formTable.
	forms formTable
	// scratch recycles SectionTokens' *tokenScratch across papers.
	scratch sync.Pool
	// feats publishes each paper's features through its own atomic slot, so
	// readers of an analysed paper never take a lock.
	feats []atomic.Pointer[Features]
	// lazy marks an analyzer built by NewAnalyzerFrozen: features are
	// analysed on first demand (under mu) instead of eagerly at
	// construction. The serving hot path (query weighting, snippets) never
	// needs them, so a frozen analyzer binds in O(1).
	lazy bool
	// DF over whole-paper term supports, used for TF-IDF weighting.
	df *vector.DF
	// Lazily computed TF-IDF vectors and norms, published like feats through
	// one atomic slot per paper: a filled slot is immutable and read without
	// a lock; mu is taken only to fill a missing slot (features included), so
	// no two fillers compute the same one. Warm fills every slot and sets
	// warmed.
	mu        sync.Mutex
	warmed    atomic.Bool
	sectionW  []atomic.Pointer[sectionWeights]
	fullTextW []atomic.Pointer[fullTextWeights]
}

// sectionWeights holds one paper's per-section TF-IDF vectors and their
// norms, indexed by Section.
type sectionWeights struct {
	vec  [NumSections]vector.Sparse
	norm [NumSections]float64
}

// fullTextWeights holds one paper's whole-text TF-IDF vector and its norm.
type fullTextWeights struct {
	vec  vector.Sparse
	norm float64
}

// NewAnalyzerWorkers analyses every paper in the corpus with a stemming,
// stopword-filtering tokenizer and builds the corpus DF table: papers are
// split into contiguous shards, each shard is analysed by one worker
// into its own document-frequency table, and the per-shard tables are
// merged in shard order. The result is identical at every worker count —
// per-paper analysis is independent (the tokenizer is a pure function of the
// word, so the shared surface-form table holds the same entries whoever
// fills them), each Features slot is written by exactly one worker, and DF
// counts are order-independent integers. workers <= 0
// selects GOMAXPROCS; 1 reproduces the sequential build directly.
func NewAnalyzerWorkers(c *Corpus, workers int) *Analyzer {
	a := &Analyzer{
		corpus:    c,
		tok:       textproc.NewTokenizer(textproc.WithStemming(), textproc.WithStopwords(), textproc.WithMinLength(2)),
		feats:     make([]atomic.Pointer[Features], c.Len()),
		df:        vector.NewDF(),
		sectionW:  make([]atomic.Pointer[sectionWeights], c.Len()),
		fullTextW: make([]atomic.Pointer[fullTextWeights], c.Len()),
	}
	papers := c.Papers()
	shards := par.Shards(len(papers), workers)
	dfs := make([]*vector.DF, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		df := vector.NewDF()
		for i := sh.Lo; i < sh.Hi; i++ {
			f := a.analyzePaper(papers[i])
			a.feats[f.ID].Store(f)
			df.AddDoc(f.AllTF)
		}
		dfs[si] = df
	})
	for _, df := range dfs {
		a.df.Merge(df)
	}
	return a
}

// NewAnalyzerFrozen binds an analyzer over a corpus and a persisted DF
// table without analysing a single paper — the O(1) open path of the
// state file, where the postings that normally consume the per-paper
// TF-IDF vectors are already frozen on disk. Query weighting
// (QueryVector) needs only the DF table and tokenizer, both available
// immediately; per-paper features are analysed lazily on first demand
// (pattern mining, the TFIDF* accessors, co-author paths), bit-identical
// to the eager build since the tokenizer and stemmer are stateless.
//
// The DF table must be the one built from this corpus: every weight and
// norm — and therefore every score — derives from it.
func NewAnalyzerFrozen(c *Corpus, df *vector.DF) *Analyzer {
	return &Analyzer{
		corpus:    c,
		tok:       textproc.NewTokenizer(textproc.WithStemming(), textproc.WithStopwords(), textproc.WithMinLength(2)),
		feats:     make([]atomic.Pointer[Features], c.Len()),
		lazy:      true,
		df:        df,
		sectionW:  make([]atomic.Pointer[sectionWeights], c.Len()),
		fullTextW: make([]atomic.Pointer[fullTextWeights], c.Len()),
	}
}

// featLocked returns a paper's features, analysing and publishing them
// first on a lazy analyzer. Caller holds a.mu, so no two fillers ever
// analyse the same slot.
func (a *Analyzer) featLocked(id PaperID) *Features {
	f := a.feats[id].Load()
	if f == nil {
		if p := a.corpus.Paper(id); p != nil {
			f = a.analyzePaper(p)
			a.feats[id].Store(f)
		}
	}
	return f
}

// ensureFeatures materializes every paper's features — the corpus-sweep
// accessors (phrase DF, co-author index) need them all. A no-op on eager
// or warmed analyzers.
func (a *Analyzer) ensureFeatures() {
	if !a.lazy || a.warmed.Load() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range a.corpus.Papers() {
		a.featLocked(p.ID)
	}
}

// tokenScratch is the split and token scratch SectionTokens shares among
// the sections of a paper and, through the analyzer's pool, among papers.
type tokenScratch struct {
	words, toks []string
}

// SectionTokens tokenizes a paper section by section, in Sections order,
// and hands each section's stemmed, stopword-filtered token stream to fn —
// the only place corpus text is tokenized, and the only writer of the
// surface-form table. toks is scratch reused for the next section and the
// next paper: fn must copy what it keeps. Safe for concurrent use: the
// table locks itself, each call leases its own scratch, and nothing else on
// the analyzer is written.
func (a *Analyzer) SectionTokens(p *Paper, fn func(s Section, toks []string)) {
	sc, _ := a.scratch.Get().(*tokenScratch)
	if sc == nil {
		sc = new(tokenScratch)
	}
	for _, s := range Sections {
		sc.words = textproc.AppendWords(sc.words[:0], p.SectionText(s))
		sc.toks = a.forms.appendTerms(sc.toks[:0], a.tok, sc.words)
		fn(s, sc.toks)
	}
	// Words are substrings of the paper's text (tokens are the table's own
	// strings): cleared over the whole capacity, since a longer section's
	// words lie beyond the last one's length, so the pool pins no paper.
	clear(sc.words[:cap(sc.words)])
	a.scratch.Put(sc)
}

// analyzePaper tokenizes one paper into its Features.
func (a *Analyzer) analyzePaper(p *Paper) *Features {
	f := &Features{
		ID:      p.ID,
		Tokens:  make(map[Section][]string, len(Sections)),
		TF:      make(map[Section]vector.Sparse, len(Sections)),
		AllTF:   vector.New(),
		Authors: make(map[string]bool, len(p.Authors)),
	}
	a.SectionTokens(p, func(s Section, toks []string) {
		toks = slices.Clone(toks)
		f.Tokens[s] = toks
		tf := vector.FromTerms(toks)
		f.TF[s] = tf
		f.AllTF.Add(tf)
	})
	for _, au := range p.Authors {
		f.Authors[normAuthor(au)] = true
	}
	return f
}

// Warm precomputes every per-section and whole-paper TF-IDF vector and norm
// in parallel, so no later TFIDF* call fills a slot. Values are
// bit-identical to lazy computation (the same fill functions run, just
// eagerly), so a warmed and an unwarmed analyzer are observationally
// indistinguishable apart from speed. workers <= 0 selects GOMAXPROCS.
// Idempotent; concurrent readers of slots already filled are not held up,
// readers of a missing slot wait on the fill lock until the warm completes.
func (a *Analyzer) Warm(workers int) {
	if a.warmed.Load() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.warmed.Load() {
		return
	}
	// The held fill lock keeps every other slot filler out, and each slot is
	// written by exactly one worker (disjoint indices).
	par.For(len(a.feats), workers, func(i int) {
		a.sectionWLocked(PaperID(i))
		a.fullTextWLocked(PaperID(i))
	})
	a.warmed.Store(true)
}

// sectionWLocked returns a paper's per-section weights, computing and
// publishing them first when the slot is empty (nil for an ID without a
// paper). Caller holds a.mu.
func (a *Analyzer) sectionWLocked(id PaperID) *sectionWeights {
	w := a.sectionW[id].Load()
	if w == nil {
		f := a.featLocked(id)
		if f == nil {
			return nil
		}
		w = new(sectionWeights)
		for _, s := range Sections {
			w.vec[s] = a.df.Weight(f.TF[s])
			w.norm[s] = w.vec[s].Norm()
		}
		a.sectionW[id].Store(w)
	}
	return w
}

// fullTextWLocked is sectionWLocked for the whole-text vector.
func (a *Analyzer) fullTextWLocked(id PaperID) *fullTextWeights {
	w := a.fullTextW[id].Load()
	if w == nil {
		f := a.featLocked(id)
		if f == nil {
			return nil
		}
		w = &fullTextWeights{vec: a.df.Weight(f.AllTF)}
		w.norm = w.vec.Norm()
		a.fullTextW[id].Store(w)
	}
	return w
}

// sectionWeightsOf returns a paper's per-section weights without a lock
// when the slot is filled; nil when id or s is out of range.
func (a *Analyzer) sectionWeightsOf(id PaperID, s Section) *sectionWeights {
	if int(id) < 0 || int(id) >= len(a.feats) || s < 0 || s >= numSections {
		return nil
	}
	if w := a.sectionW[id].Load(); w != nil {
		return w
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sectionWLocked(id)
}

// fullTextWeightsOf is sectionWeightsOf for the whole-text vector.
func (a *Analyzer) fullTextWeightsOf(id PaperID) *fullTextWeights {
	if int(id) < 0 || int(id) >= len(a.feats) {
		return nil
	}
	if w := a.fullTextW[id].Load(); w != nil {
		return w
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fullTextWLocked(id)
}

func normAuthor(a string) string {
	out := make([]byte, 0, len(a))
	for i := 0; i < len(a); i++ {
		c := a[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}

// Corpus returns the analysed corpus.
func (a *Analyzer) Corpus() *Corpus { return a.corpus }

// Features returns the analysed features of a paper, or nil when out of
// range.
func (a *Analyzer) Features(id PaperID) *Features {
	if int(id) < 0 || int(id) >= len(a.feats) {
		return nil
	}
	if f := a.feats[id].Load(); f != nil || !a.lazy {
		return f
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.featLocked(id)
}

// DF returns the corpus document-frequency table.
func (a *Analyzer) DF() *vector.DF { return a.df }

// AnalyzedPapers returns how many papers' Features this analyzer has
// materialised: every paper on an eager analyzer, and on a frozen one only
// those some caller demanded — 0 for a state-booted process that only
// serves queries.
func (a *Analyzer) AnalyzedPapers() int {
	n := 0
	for i := range a.feats {
		if a.feats[i].Load() != nil {
			n++
		}
	}
	return n
}

// TFIDF returns the cached TF-IDF vector of a paper section.
func (a *Analyzer) TFIDF(id PaperID, s Section) vector.Sparse {
	if w := a.sectionWeightsOf(id, s); w != nil {
		return w.vec[s]
	}
	return nil
}

// TFIDFAll returns the cached TF-IDF vector over the paper's full text.
func (a *Analyzer) TFIDFAll(id PaperID) vector.Sparse {
	if w := a.fullTextWeightsOf(id); w != nil {
		return w.vec
	}
	return nil
}

// TFIDFNorm returns the cached Euclidean norm of a section's TF-IDF vector.
func (a *Analyzer) TFIDFNorm(id PaperID, s Section) float64 {
	if w := a.sectionWeightsOf(id, s); w != nil {
		return w.norm[s]
	}
	return 0
}

// TFIDFAllNorm returns the cached norm of the paper's full-text TF-IDF
// vector.
func (a *Analyzer) TFIDFAllNorm(id PaperID) float64 {
	if w := a.fullTextWeightsOf(id); w != nil {
		return w.norm
	}
	return 0
}

// QueryVector tokenizes a free-text query with the analyzer's tokenizer and
// returns its TF-IDF vector under the corpus DF table.
func (a *Analyzer) QueryVector(q string) vector.Sparse {
	return a.TermsVector(a.tok.Terms(q))
}

// TermsVector is QueryVector for a query already tokenized by the
// analyzer's tokenizer — a caller that needs the terms anyway (context
// selection does) tokenizes and stems once.
func (a *Analyzer) TermsVector(terms []string) vector.Sparse {
	return a.df.Weight(vector.FromTerms(terms))
}

// Tokenizer returns the analyzer's tokenizer, so other components (pattern
// mining, context-term processing) tokenize identically.
func (a *Analyzer) Tokenizer() *textproc.Tokenizer { return a.tok }

// CoAuthorIndex maps each normalised author to the sorted set of papers
// they appear on; used by Level-1 author overlap.
func (a *Analyzer) CoAuthorIndex() map[string][]PaperID {
	a.ensureFeatures()
	idx := make(map[string][]PaperID)
	for i := range a.feats {
		f := a.feats[i].Load()
		for au := range f.Authors {
			idx[au] = append(idx[au], f.ID)
		}
	}
	for au := range idx {
		sort.Slice(idx[au], func(i, j int) bool { return idx[au][i] < idx[au][j] })
	}
	return idx
}
