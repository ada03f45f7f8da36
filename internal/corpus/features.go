package corpus

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"ctxsearch/internal/par"
	"ctxsearch/internal/textproc"
	"ctxsearch/internal/vector"
)

// NoTerm stands in a token stream for a token the dictionary lacks. Only a
// frozen analyzer over a corpus other than the one its DF table was built
// from meets one; it equals no dictionary ID.
const NoTerm int32 = -1

// WholeText stands, after the sections, for a paper's whole text: Row(id,
// WholeText) is the whole-paper TF-IDF row.
const WholeText = numSections

// rowsPerPaper is the number of TF-IDF rows of a paper: one per section, then
// the whole text.
const rowsPerPaper = NumSections + 1

// Analyzer tokenizes every paper once, into term IDs over one dictionary —
// the corpus's distinct tokens in lexicographic order, held with their
// document frequencies by the vector.DF — and keeps, per paper, the token
// stream and the TF-IDF rows of each section and of the whole text. The
// inverted index, the text context set and text prestige all read these
// arrays; none keeps a copy.
//
// Because IDs follow lexicographic term order, a loop over a row visits terms
// in sorted-string order, and a cosine gathered from rows reduces the same
// products through vector.SumSorted as vector.Sparse.Dot does over the
// string-keyed vectors: every weight, norm and score is the one the map form
// gives, bit for bit.
type Analyzer struct {
	corpus *Corpus
	tok    *textproc.Tokenizer
	// forms memoises the tokenizer per distinct raw word of the paper text
	// for a frozen analyzer's token fills; see formTable. The eager build
	// tokenizes through a table per worker instead, and drops them.
	forms formTable
	// scratch recycles *scratch across papers and goroutines.
	scratch sync.Pool
	df      *vector.DF
	// tokens publishes each paper's token stream through its own slot. An
	// eager analyzer fills every slot at construction; a frozen one fills a
	// slot on first demand, and goroutines racing to fill the same slot build
	// equal streams, the first to publish winning. A filled slot is
	// immutable and read with one atomic load.
	tokens []atomic.Pointer[Tokens]
	// The TF-IDF rows, eager analyzer only (nil on a frozen one, which
	// computes a row per call). Row r = p·rowsPerPaper + s — section s of
	// paper p, s == NumSections for the whole paper — is
	// terms/weights[rowEnd[r-1]:rowEnd[r]] (from 0 for row 0), ascending by
	// term ID, with norm norms[r].
	rowEnd  []int32
	terms   []int32
	weights []float64
	norms   []float64
	// analyzed counts the rows a frozen analyzer has computed.
	analyzed atomic.Int64
}

// Tokens is one paper's stemmed, stopword-filtered token stream as term IDs,
// the sections concatenated in Sections order.
type Tokens struct {
	IDs []int32
	// Ends[s] is where section s stops in IDs (and section s+1 starts).
	Ends [NumSections]int32
}

// Section returns the token IDs of one section.
func (t *Tokens) Section(s Section) []int32 {
	lo := int32(0)
	if s > 0 {
		lo = t.Ends[s-1]
	}
	return t.IDs[lo:t.Ends[s]]
}

// Row is a TF-IDF vector in term-ID form: Weights[i] is the weight of term
// Terms[i], ascending by ID, and Norm the Euclidean norm — the values
// vector.DF.Weight and Sparse.Norm give the string-keyed vector.
type Row struct {
	Terms   []int32
	Weights []float64
	Norm    float64
}

// scratch is the working memory of tokenizing and weighting one paper: the
// raw words of a section, a dense per-term count with the terms it touched
// and a bitmap that orders them, the squared weights of a norm, and a token
// buffer.
type scratch struct {
	words   []string
	cnt     []int32
	touched []int32
	bitmap  []uint64
	sq      []float64
	ids     []int32
}

// newAnalyzer returns an analyzer over c with empty token slots.
func newAnalyzer(c *Corpus) *Analyzer {
	return &Analyzer{
		corpus: c,
		tok:    textproc.NewTokenizer(textproc.WithStemming(), textproc.WithStopwords(), textproc.WithMinLength(2)),
		tokens: make([]atomic.Pointer[Tokens], c.Len()),
	}
}

// NewAnalyzerWorkers analyses every paper in the corpus with a stemming,
// stopword-filtering tokenizer: token streams, the dictionary with its
// document frequencies, and every TF-IDF row. Papers are split into
// contiguous shards, one worker each, in three passes:
//
//  1. tokenize through the worker's own form table, into its first-seen IDs;
//  2. after the union of the tables' vocabularies is sorted into the
//     dictionary, map each stream through its table to dictionary IDs and
//     count each row's term frequencies and the shard's document
//     frequencies;
//  3. after the counts are summed, weigh every row into the corpus-wide
//     arrays at the shard's offset.
//
// The result is identical at every worker count: the tokenizer is a pure
// function of the word, so a stream's tokens do not depend on which table
// resolved them; the dictionary is the sorted union; counts are integers;
// and each row is computed from its paper alone. No two workers share a
// table, so pass 1 waits on no lock. workers <= 0 selects GOMAXPROCS.
func NewAnalyzerWorkers(c *Corpus, workers int) *Analyzer {
	a := newAnalyzer(c)
	papers := c.Papers()
	toks := make([]Tokens, len(papers))
	shards := par.Shards(len(papers), workers)
	streams := make([][]int32, len(shards))
	tables := make([]*formTable, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		ft, sc := new(formTable), a.lease(0)
		var ids []int32
		for i := sh.Lo; i < sh.Hi; i++ {
			ids = a.appendTokens(sc, ft, ids, papers[i], &toks[i].Ends)
		}
		a.scratch.Put(sc)
		streams[si], tables[si] = ids, ft
	})

	var terms []string
	for _, ft := range tables {
		terms = append(terms, ft.vocab...)
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)

	// tf holds a shard's rows in counts, with ends relative to the shard.
	type tf struct {
		rowEnd []int32
		terms  []int32
		counts []float64
		df     []int32
	}
	tfs := make([]tf, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		vocab := tables[si].vocab
		toDict := make([]int32, len(vocab)) // table ID → dictionary ID
		for t, term := range vocab {
			id, _ := slices.BinarySearch(terms, term)
			toDict[t] = int32(id)
		}
		ids := streams[si]
		for k, t := range ids {
			ids[k] = toDict[t]
		}
		sc := a.lease(len(terms))
		r := tf{df: make([]int32, len(terms))}
		off := int32(0)
		for i := sh.Lo; i < sh.Hi; i++ {
			t := &toks[i]
			end := off + t.Ends[NumSections-1]
			t.IDs = ids[off:end:end]
			off = end
			for _, s := range Sections {
				r.terms, r.counts = sc.appendTF(r.terms, r.counts, t.Section(s))
				r.rowEnd = append(r.rowEnd, int32(len(r.terms)))
			}
			lo := len(r.terms)
			r.terms, r.counts = sc.appendTF(r.terms, r.counts, t.IDs)
			r.rowEnd = append(r.rowEnd, int32(len(r.terms)))
			for _, id := range r.terms[lo:] {
				r.df[id]++
			}
		}
		a.scratch.Put(sc)
		tfs[si] = r
	})

	df := make([]int32, len(terms))
	bases := make([]int32, len(shards)+1)
	for si, r := range tfs {
		for id, k := range r.df {
			df[id] += k
		}
		bases[si+1] = bases[si] + int32(len(r.terms))
	}
	var err error
	if a.df, err = vector.NewDF(len(papers), terms, df); err != nil {
		panic(err) // the dictionary is sorted and duplicate-free by construction
	}
	idf := a.df.IDFs()
	total := bases[len(shards)]
	a.rowEnd = make([]int32, len(papers)*rowsPerPaper)
	a.terms = make([]int32, total)
	a.weights = make([]float64, total)
	a.norms = make([]float64, len(papers)*rowsPerPaper)
	par.ForShards(shards, func(si int, sh par.Shard) {
		r, base := tfs[si], bases[si]
		copy(a.terms[base:], r.terms)
		copy(a.weights[base:], r.counts)
		sc := a.lease(0)
		lo := base
		for k, end := range r.rowEnd {
			row, hi := sh.Lo*rowsPerPaper+k, base+end
			a.rowEnd[row] = hi
			a.norms[row] = sc.weigh(a.terms[lo:hi], a.weights[lo:hi], idf)
			lo = hi
		}
		a.scratch.Put(sc)
	})
	for i := range toks {
		a.tokens[i].Store(&toks[i])
	}
	return a
}

// NewAnalyzerFrozen binds an analyzer over a corpus and a persisted DF
// table without analysing a single paper — the O(1) open path of the
// state file, where the postings that normally consume the TF-IDF rows are
// already frozen on disk. The DF table is the dictionary. Query weighting
// (QueryVector) needs only it and the tokenizer; a paper's token stream is
// tokenized on first demand (a boolean phrase or field check) and kept, and
// its TF-IDF rows are computed on every call, bit-identical to the eager
// build's since the tokenizer and stemmer are stateless. No serving path
// asks for rows.
//
// The DF table must be the one built from this corpus: every weight and
// norm — and therefore every score — derives from it.
func NewAnalyzerFrozen(c *Corpus, df *vector.DF) *Analyzer {
	a := newAnalyzer(c)
	a.df = df
	a.forms.dict = df
	return a
}

// lease returns a pooled scratch whose dense count and bitmap cover n terms.
func (a *Analyzer) lease(n int) *scratch {
	sc, _ := a.scratch.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	if len(sc.cnt) < n {
		sc.cnt = make([]int32, n)
		sc.bitmap = make([]uint64, (n+63)/64)
	}
	return sc
}

// appendTokens tokenizes paper p section by section, in Sections order,
// appending the tokens' IDs in form table ft to dst and recording where each
// section ends relative to where p's stream starts. It is the only place
// corpus text is tokenized, and the only writer of a form table.
func (a *Analyzer) appendTokens(sc *scratch, ft *formTable, dst []int32, p *Paper, ends *[NumSections]int32) []int32 {
	start := len(dst)
	for _, s := range Sections {
		sc.words = textproc.AppendWords(sc.words[:0], p.SectionText(s))
		dst = ft.appendIDs(dst, a.tok, sc.words)
		ends[s] = int32(len(dst) - start)
	}
	// Words are substrings of the paper's text: cleared over the whole
	// capacity, since a longer section's words lie beyond the last one's
	// length, so the pool pins no paper.
	clear(sc.words[:cap(sc.words)])
	return dst
}

// appendTF appends the distinct dictionary terms of toks to terms in
// ascending order, and their counts to counts — vector.FromTerms in term-ID
// form. NoTerm tokens are skipped. The row is ordered without a comparison
// sort: each term sets its bit in a bitmap over the dictionary, and the words
// between the row's lowest and highest term are read back lowest bit first.
// sc.cnt and sc.bitmap are all zero on entry and on return.
func (sc *scratch) appendTF(terms []int32, counts []float64, toks []int32) ([]int32, []float64) {
	lo, hi := int32(math.MaxInt32), int32(-1) // words of the bitmap the row set
	for _, t := range toks {
		if t == NoTerm {
			continue
		}
		if sc.cnt[t] == 0 {
			sc.bitmap[t>>6] |= 1 << (t & 63)
			lo, hi = min(lo, t>>6), max(hi, t>>6)
		}
		sc.cnt[t]++
	}
	touched := sc.touched[:0]
	for w := lo; w <= hi; w++ {
		for b := sc.bitmap[w]; b != 0; b &= b - 1 {
			touched = append(touched, w<<6|int32(bits.TrailingZeros64(b)))
		}
		sc.bitmap[w] = 0
	}
	for _, t := range touched {
		terms = append(terms, t)
		counts = append(counts, float64(sc.cnt[t]))
		sc.cnt[t] = 0
	}
	sc.touched = touched
	return terms, counts
}

// weigh turns a row's term counts into TF-IDF weights in place, by
// vector.DF.Weight's arithmetic (1 + ln tf)·idf, and returns the row's norm
// by Sparse.Norm's: the square root of the ascending sum of the squares.
func (sc *scratch) weigh(terms []int32, w, idf []float64) float64 {
	sq := sc.sq[:0]
	for i, t := range terms {
		w[i] = (1 + math.Log(w[i])) * idf[t]
		sq = append(sq, w[i]*w[i])
	}
	sc.sq = sq
	return vector.NormOfSquares(sq)
}

// Corpus returns the analysed corpus.
func (a *Analyzer) Corpus() *Corpus { return a.corpus }

// DF returns the dictionary and its document frequencies.
func (a *Analyzer) DF() *vector.DF { return a.df }

// Term returns the string of a term ID, "" for NoTerm.
func (a *Analyzer) Term(id int32) string {
	if terms := a.df.Terms(); id >= 0 && int(id) < len(terms) {
		return terms[id]
	}
	return ""
}

// Tokens returns a paper's token stream, nil when id is out of range. On a
// frozen analyzer the first call for a paper tokenizes it.
func (a *Analyzer) Tokens(id PaperID) *Tokens {
	if int(id) < 0 || int(id) >= len(a.tokens) {
		return nil
	}
	if t := a.tokens[id].Load(); t != nil {
		return t
	}
	sc := a.lease(0)
	t := new(Tokens)
	sc.ids = a.appendTokens(sc, &a.forms, sc.ids[:0], a.corpus.Paper(id), &t.Ends)
	t.IDs = make([]int32, len(sc.ids)) // exact size: append's slack would stay live
	copy(t.IDs, sc.ids)
	a.scratch.Put(sc)
	if !a.tokens[id].CompareAndSwap(nil, t) {
		t = a.tokens[id].Load()
	}
	return t
}

// TokenTablePapers returns how many papers' token streams the analyzer
// holds: every paper on an eager analyzer, and on a frozen one those some
// caller asked for — a boolean phrase or field check, mostly.
func (a *Analyzer) TokenTablePapers() int {
	n := 0
	for i := range a.tokens {
		if a.tokens[i].Load() != nil {
			n++
		}
	}
	return n
}

// Row returns the TF-IDF row of section s of a paper, or of its whole text
// for s == WholeText; empty when id is out of range. It is a view of the
// arrays on an eager analyzer, and computed from the token stream on a
// frozen one.
func (a *Analyzer) Row(id PaperID, s Section) Row {
	if int(id) < 0 || int(id) >= len(a.tokens) {
		return Row{}
	}
	if a.rowEnd == nil {
		a.analyzed.Add(1)
		t := a.Tokens(id)
		toks := t.IDs
		if s != WholeText {
			toks = t.Section(s)
		}
		sc := a.lease(len(a.df.Terms()))
		var r Row
		r.Terms, r.Weights = sc.appendTF(nil, nil, toks)
		r.Norm = sc.weigh(r.Terms, r.Weights, a.df.IDFs())
		a.scratch.Put(sc)
		return r
	}
	k := int(id)*rowsPerPaper + int(s)
	lo, hi := int32(0), a.rowEnd[k]
	if k > 0 {
		lo = a.rowEnd[k-1]
	}
	return Row{a.terms[lo:hi:hi], a.weights[lo:hi:hi], a.norms[k]}
}

// AnalyzedPapers returns how many paper analyses this analyzer has done:
// every paper on an eager analyzer, and on a frozen one the TF-IDF rows
// callers asked it to compute — 0 for a state-booted process that only
// serves queries.
func (a *Analyzer) AnalyzedPapers() int {
	if a.rowEnd != nil {
		return len(a.tokens)
	}
	return int(a.analyzed.Load())
}

// Centroid is the arithmetic mean of TF-IDF rows, dense by term ID, with its
// norm: vector.Centroid over the rows' string-keyed vectors, bit for bit.
type Centroid struct {
	w    []float64
	norm float64
	dict []string
}

// Centroid returns the mean of the rows. Each term's weights are summed in
// row order and the sum scaled by 1/len(rows), as vector.Centroid does.
func (a *Analyzer) Centroid(rows []Row) Centroid {
	c := Centroid{w: make([]float64, len(a.df.Terms())), dict: a.df.Terms()}
	if len(rows) == 0 {
		return c
	}
	for _, r := range rows {
		for i, t := range r.Terms {
			c.w[t] += r.Weights[i]
		}
	}
	scale := 1 / float64(len(rows))
	var sq []float64
	for t, w := range c.w {
		if w != 0 {
			c.w[t] = w * scale
			sq = append(sq, c.w[t]*c.w[t])
		}
	}
	c.norm = vector.NormOfSquares(sq)
	return c
}

// Cosine returns the cosine between a row and the centroid, 0 when either
// norm is: the products of their shared terms reduced by vector.SumSorted
// over the product of the norms, vector.CosineWithNorms bit for bit.
func (c Centroid) Cosine(r Row) float64 {
	if r.Norm == 0 || c.norm == 0 {
		return 0
	}
	prods := make([]float64, 0, len(r.Terms))
	for i, t := range r.Terms {
		if w := c.w[t]; w != 0 {
			prods = append(prods, r.Weights[i]*w)
		}
	}
	return vector.SumSorted(prods) / (r.Norm * c.norm)
}

// Vector returns the centroid as a string-keyed vector: vector.Centroid's
// result, for use as a query or a cluster label.
func (c Centroid) Vector() vector.Sparse {
	v := vector.New()
	for t, w := range c.w {
		if w != 0 {
			v[c.dict[t]] = w
		}
	}
	return v
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
