// Package index implements the inverted-index keyword search substrate.
// Both the plain PubMed-style baseline and the per-context searches of the
// context-based engine run on it; the AC-answer-set construction uses its
// high-threshold mode to seed answer sets.
//
// The index is laid out for query throughput: terms are the analyzer's
// dense dictionary IDs and postings live in flat CSR-style arrays (one
// offsets array plus packed doc and term-frequency columns), so a query
// walks contiguous memory instead of chasing map buckets. A posting stores
// its term frequency, not its TF-IDF weight: the weight (1 + ln tf)·idf is a
// function of that small integer and of the DF table the analyzer holds, and
// the index derives it by the analyzer's own arithmetic, so every weight has
// the bits the analyzer's row gives (see Weight). Scoring accumulates
// into a pooled dense array indexed by document ID rather than a
// map[PaperID]float64. Term IDs follow lexicographic term order, which keeps
// the floating-point accumulation order — and therefore every score, bit
// for bit — identical to sorting the query's term strings.
package index

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/par"
	"ctxsearch/internal/vector"
)

// cancelCheckMask batches cooperative cancellation checks in scoring loops:
// ctx.Err() is consulted once every cancelCheckMask+1 iterations, keeping
// the hot path branch-cheap while still stopping an abandoned query within
// a few thousand documents.
const cancelCheckMask = 8192 - 1

// Hit is one search result.
type Hit struct {
	Doc corpus.PaperID
	// Score is the cosine similarity between the query and the document's
	// full-text TF-IDF vectors, in [0,1].
	Score float64
}

// Index is an immutable inverted index over a corpus's full-text TF-IDF
// vectors. Construct with BuildWorkers, or bind persisted arrays with
// FromParts.
type Index struct {
	// analyzer's dictionary is the index's: term t is its term ID t.
	analyzer *corpus.Analyzer
	// CSR postings: the postings of term t are docs[offsets[t]:offsets[t+1]]
	// and, aligned with them, their term frequencies tf[...], sorted by
	// ascending doc ID. Every tf is at least 1.
	offsets []int32
	docs    []corpus.PaperID
	tf      []uint16
	norms   []float64
	// idf is the analyzer's per-term IDF, and logTF[k] = 1 + ln k the TF
	// damping for every 1 <= k <= the largest posting TF (logTF[0] is
	// unused): a posting's weight is float64(logTF[tf]·idf[t]).
	idf   []float64
	logTF []float64
	// accPool recycles dense score accumulators across searches.
	accPool sync.Pool
}

// accum is a reusable dense scoring scratchpad: val holds partial dot
// products indexed by doc, seen marks touched docs, touched lists them so
// reset is O(hits) not O(corpus).
type accum struct {
	val     []float64
	seen    []bool
	touched []corpus.PaperID
}

// newIndex returns an index over the analyzer and the CSR arrays, with its
// accumulator pool; maxTF is the largest posting TF.
func newIndex(a *corpus.Analyzer, offsets []int32, docs []corpus.PaperID, tf []uint16, norms []float64, maxTF int) *Index {
	ix := &Index{
		analyzer: a,
		offsets:  offsets,
		docs:     docs,
		tf:       tf,
		norms:    norms,
		idf:      a.DF().IDFs(),
		logTF:    make([]float64, maxTF+1),
	}
	for k := 1; k <= maxTF; k++ {
		ix.logTF[k] = logTF(k)
	}
	n := len(norms)
	ix.accPool.New = func() any {
		return &accum{val: make([]float64, n), seen: make([]bool, n)}
	}
	return ix
}

// logTF is the analyzer's term-frequency damping 1 + ln tf (see
// corpus.Analyzer's weigh and vector.DF.Weight).
func logTF(tf int) float64 { return 1 + math.Log(float64(tf)) }

// Weight returns the TF-IDF weight of a posting of term t with term
// frequency tf (1 <= tf <= the largest posting TF): (1 + ln tf)·idf(t), the
// weight the analyzer's row gives the term, bit for bit.
func (ix *Index) Weight(t int32, tf uint16) float64 {
	return float64(ix.logTF[tf] * ix.idf[t])
}

// BuildWorkers constructs the index from an analysed corpus: the CSR
// transpose of the analyzer's whole-paper TF-IDF rows. Every dictionary
// term has a posting — a corpus token has TF >= 1 and IDF log(1+N/df) > 0 —
// so the index terms are the dictionary. Papers (in ascending ID order) are
// split into contiguous shards; each worker counts its shard's postings per
// term, and each then fills its shard's postings into the shared CSR arrays
// at precomputed disjoint cursors. The output is byte-identical at every
// worker count: per-term counts are order-independent integer sums, and
// because shards are contiguous ID ranges, writing shard s's postings after
// all of shard s-1's reproduces exactly the ascending-doc posting layout of
// the sequential build. workers <= 0 selects GOMAXPROCS.
//
// A posting keeps the term frequency its weight was computed from (see
// tfOf). BuildWorkers returns an error, naming the paper and the term, if a
// weight is not (1 + ln tf)·idf for an integer 1 <= tf <= 65535 — the width
// of a posting's TF — bit for bit: a loaded corpus can repeat a word more
// often than that.
func BuildWorkers(a *corpus.Analyzer, workers int) (*Index, error) {
	c := a.Corpus()
	return buildPapers(a, sortedPapers(c, 0, c.Len()), workers)
}

// sortedPapers returns the corpus's papers with lo <= ID < hi in ascending
// ID order.
func sortedPapers(c *corpus.Corpus, lo, hi int) []*corpus.Paper {
	papers := make([]*corpus.Paper, 0, hi-lo)
	for _, p := range c.Papers() {
		if int(p.ID) >= lo && int(p.ID) < hi {
			papers = append(papers, p)
		}
	}
	sort.Slice(papers, func(i, j int) bool { return papers[i].ID < papers[j].ID })
	return papers
}

// buildPapers runs the sharded build pipeline over an explicit paper list
// (ascending ID order).
func buildPapers(a *corpus.Analyzer, papers []*corpus.Paper, workers int) (*Index, error) {
	n := a.Corpus().Len()
	nTerms := len(a.DF().Terms())
	idf := a.DF().IDFs()
	norms := make([]float64, n)
	shards := par.Shards(len(papers), workers)

	// Pass 1 (sharded): per-shard term posting counts; norms land in
	// disjoint slots.
	shardCounts := make([][]int32, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		counts := make([]int32, nTerms)
		for i := sh.Lo; i < sh.Hi; i++ {
			r := a.Row(papers[i].ID, corpus.WholeText)
			norms[papers[i].ID] = r.Norm
			for _, t := range r.Terms {
				counts[t]++
			}
		}
		shardCounts[si] = counts
	})

	// Offsets, and per-shard write cursors: shard s writes term t's postings
	// starting at offsets[t] plus the posting counts of earlier shards, so
	// shard regions are disjoint and concatenate in ascending doc order.
	offsets := make([]int32, nTerms+1)
	for t := 0; t < nTerms; t++ {
		offsets[t+1] = offsets[t]
		for _, counts := range shardCounts {
			offsets[t+1] += counts[t]
		}
	}
	bases := make([][]int32, len(shards))
	running := slices.Clone(offsets[:nTerms])
	for si, counts := range shardCounts {
		bases[si] = slices.Clone(running)
		for t, cnt := range counts {
			running[t] += cnt
		}
	}

	// Pass 2 (sharded): fill the packed columns. Within a shard, visiting
	// papers in ascending ID order leaves every term's posting run sorted
	// by doc with no per-term sort — exactly as in the sequential build.
	total := offsets[nTerms]
	docs := make([]corpus.PaperID, total)
	tf := make([]uint16, total)
	maxTF := make([]int, len(shards))
	errs := make([]error, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		next := bases[si]
		for i := sh.Lo; i < sh.Hi; i++ {
			p := papers[i]
			r := a.Row(p.ID, corpus.WholeText)
			for k, t := range r.Terms {
				f, err := tfOf(r.Weights[k], idf[t])
				if err != nil {
					errs[si] = fmt.Errorf("index: paper %d, term %q: %w", p.ID, a.Term(t), err)
					return
				}
				slot := next[t]
				docs[slot] = p.ID
				tf[slot] = f
				next[t] = slot + 1
				maxTF[si] = max(maxTF[si], int(f))
			}
		}
	})
	// The first failing shard holds the lowest paper ID that fails.
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return newIndex(a, offsets, docs, tf, norms, slices.Max(append(maxTF, 0))), nil
}

// tfOf returns the term frequency tf whose weight (1 + ln tf)·idf is w, bit
// for bit, and an error when there is none in [1, 65535]: the inverse of the
// analyzer's weighting, which computes w from the whole-text count.
func tfOf(w, idf float64) (uint16, error) {
	f := math.Round(math.Exp(w/idf - 1))
	if !(f >= 1 && f <= math.MaxUint16) {
		return 0, fmt.Errorf("weight %v at IDF %v is no term frequency in [1, %d]", w, idf, math.MaxUint16)
	}
	if got := float64(logTF(int(f)) * idf); math.Float64bits(got) != math.Float64bits(w) {
		return 0, fmt.Errorf("weight %v at IDF %v: term frequency %v gives %v", w, idf, f, got)
	}
	return uint16(f), nil
}

// Postings returns the posting run of a term ID — ascending document IDs
// and, aligned with them, each document's full-text term frequency for the
// term (nil slices for corpus.NoTerm); Weight turns a TF into the posting's
// TF-IDF weight. The slices alias the index and must not be modified.
func (ix *Index) Postings(t int32) ([]corpus.PaperID, []uint16) {
	if t < 0 {
		return nil, nil
	}
	lo, hi := ix.offsets[t], ix.offsets[t+1]
	return ix.docs[lo:hi], ix.tf[lo:hi]
}

// termID returns a term's dictionary ID, corpus.NoTerm when it has none.
func (ix *Index) termID(term string) int32 {
	if id, ok := ix.analyzer.DF().ID(term); ok {
		return id
	}
	return corpus.NoTerm
}

// getAccum leases a clean dense accumulator sized to the corpus.
func (ix *Index) getAccum() *accum {
	return ix.accPool.Get().(*accum)
}

// putAccum resets only the touched slots and returns the accumulator to
// the pool.
func (ix *Index) putAccum(a *accum) {
	for _, d := range a.touched {
		a.val[d] = 0
		a.seen[d] = false
	}
	a.touched = a.touched[:0]
	ix.accPool.Put(a)
}

// Terms returns the number of distinct indexed terms.
func (ix *Index) Terms() int { return len(ix.offsets) - 1 }

// Analyzer returns the analyzer the index was built from.
func (ix *Index) Analyzer() *corpus.Analyzer { return ix.analyzer }

// Options configure a search.
type Options struct {
	// Threshold drops hits with cosine score below it.
	Threshold float64
	// Limit caps the number of hits (0 = unlimited).
	Limit int
	// WithinSet restricts the search to the documents of a bitset (nil =
	// all) — context-restricted searches pass their contexts' union.
	WithinSet bitset.Set
}

// allows reports whether a doc passes the WithinSet restriction.
func (o *Options) allows(doc corpus.PaperID) bool {
	return o.WithinSet == nil || o.WithinSet.Contains(int(doc))
}

// restricted reports whether a document restriction is set.
func (o *Options) restricted() bool { return o.WithinSet != nil }

// Search runs a free-text query and returns hits sorted by descending
// score, ties broken by ascending document ID.
func (ix *Index) Search(query string, opts Options) []Hit {
	qv := ix.analyzer.QueryVector(query)
	return ix.SearchVector(qv, opts)
}

// queryTerm is one resolved query term: term ID plus query weight.
type queryTerm struct {
	id int32
	w  float64
}

// resolveQuery maps the query vector's terms to IDs, dropping unindexed ones
// (they have no postings, hence no contribution), sorted by term ID —
// lexicographic term order, so accumulation order matches the historical
// sort.Strings order bit for bit. The vector pass and the boolean text
// scorer both resolve through here.
func (ix *Index) resolveQuery(qv vector.Sparse) []queryTerm {
	qts := make([]queryTerm, 0, len(qv))
	for term, w := range qv {
		if id := ix.termID(term); id != corpus.NoTerm {
			qts = append(qts, queryTerm{id, w})
		}
	}
	sortQueryTerms(qts)
	return qts
}

// sortQueryTerms orders resolved terms by ascending term ID.
func sortQueryTerms(qts []queryTerm) {
	slices.SortFunc(qts, func(a, b queryTerm) int { return cmp.Compare(a.id, b.id) })
}

// SearchVector searches with a pre-built query vector (used by expansion
// steps that query with document centroids).
func (ix *Index) SearchVector(qv vector.Sparse, opts Options) []Hit {
	hits, _ := ix.SearchVectorContext(context.Background(), qv, opts)
	return hits
}

// SearchVectorContext is SearchVector with cooperative cancellation: the
// postings walk checks ctx between query terms and the scoring pass checks
// periodically, so an abandoned or deadline-expired query stops promptly
// instead of running to completion. A completed call returns exactly the
// hits SearchVector would; a cancelled call returns (nil, ctx.Err()).
// A bounded query (Limit > 0) returns the first Limit hits of the
// exhaustive pass, as SearchQueryContext does.
func (ix *Index) SearchVectorContext(ctx context.Context, qv vector.Sparse, opts Options) ([]Hit, error) {
	hits, err := ix.AppendVectorHits(ctx, qv, opts, nil)
	if err != nil {
		return nil, err
	}
	sortHits(hits)
	if opts.Limit > 0 && len(hits) > opts.Limit {
		hits = hits[:opts.Limit]
	}
	return hits, nil
}

// AppendVectorHits appends to dst every hit an unlimited SearchVectorContext
// would return — same documents, same score bits, opts.Limit ignored — in
// unspecified order. It is the entry point of callers that recycle the hit
// buffer and rank the hits under an order of their own (the engine's
// relevancy merge). On cancellation dst is returned unextended with ctx's
// error.
func (ix *Index) AppendVectorHits(ctx context.Context, qv vector.Sparse, opts Options, dst []Hit) ([]Hit, error) {
	qn := qv.Norm()
	if qn == 0 {
		return dst, ctx.Err()
	}
	qts := ix.resolveQuery(qv)
	acc := ix.getAccum()
	defer ix.putAccum(acc)
	restricted := opts.restricted()
	for _, qt := range qts {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		// A posting adds the query weight times its weight Weight(t, tf),
		// each product rounded — the bits float64(qw * w) gave over a stored
		// weight w. Computed per posting: a per-term table of the products
		// for every TF measured slower, its fill not repaid by short runs.
		qw, idf, logTF := qt.w, ix.idf[qt.id], ix.logTF
		docs, tfs := ix.Postings(qt.id)
		for i, doc := range docs {
			if restricted && !opts.allows(doc) {
				continue
			}
			if !acc.seen[doc] {
				acc.seen[doc] = true
				acc.touched = append(acc.touched, doc)
			}
			acc.val[doc] += float64(qw * float64(logTF[tfs[i]]*idf))
		}
	}
	hits := slices.Grow(dst, len(acc.touched))
	for i, doc := range acc.touched {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return dst, err
			}
		}
		dn := ix.norms[doc]
		if dn == 0 {
			continue
		}
		score := acc.val[doc] / (qn * dn)
		if score >= opts.Threshold && score > 0 {
			hits = append(hits, Hit{doc, score})
		}
	}
	return hits, nil
}

// TopKStats are the counters of the block-max top-k evaluator, which no
// longer exists: Index.TopKStats reports zeros.
//
// Deprecated: kept only because bench/run.go and bench/tour.go compile
// against it; it goes when bench/ stops naming it.
type TopKStats struct {
	Visited uint64 `json:"visited"`
	Skipped uint64 `json:"skipped"`
}

// TopKStats returns the zero value: a bounded query is a prefix of the
// exhaustive pass and prunes nothing.
//
// Deprecated: kept only because bench/tour.go compiles against it; it goes
// when bench/ stops naming it.
func (ix *Index) TopKStats() TopKStats { return TopKStats{} }

// textScorer scores single documents against one query from the frozen
// postings: the query's indexed terms with their posting runs, resolved
// once. Not safe for concurrent use (prods is scratch).
type textScorer struct {
	ix    *Index
	qn    float64 // ‖q‖
	terms []scorerTerm
	prods []float64
}

// scorerTerm is one query term with postings: its ID, query weight and run.
type scorerTerm struct {
	id   int32
	w    float64
	docs []corpus.PaperID
	tf   []uint16
}

// newTextScorer resolves the query's terms to their posting runs (through
// resolveQuery, like the vector pass); terms without postings contribute to
// no score and are dropped.
func (ix *Index) newTextScorer(qv vector.Sparse) textScorer {
	qts := ix.resolveQuery(qv)
	sc := textScorer{ix: ix, qn: qv.Norm(), terms: make([]scorerTerm, 0, len(qts))}
	for _, qt := range qts {
		if docs, tf := ix.Postings(qt.id); len(docs) > 0 {
			sc.terms = append(sc.terms, scorerTerm{qt.id, qt.w, docs, tf})
		}
	}
	sc.prods = make([]float64, 0, len(sc.terms))
	return sc
}

// score returns the cosine between the query and doc (0 <= doc <
// len(norms)). A posting's weight is the document's TF-IDF component for
// the term, so the products gathered here are the multiset Sparse.Dot forms
// over the query and document vectors; summed ascending like Dot and
// divided by the same ‖q‖·‖d‖, the score equals the vector-form cosine bit
// for bit.
func (sc *textScorer) score(doc corpus.PaperID) float64 {
	dn := sc.ix.norms[doc]
	if dn == 0 || sc.qn == 0 {
		return 0
	}
	prods := sc.prods[:0]
	for _, t := range sc.terms {
		if i, ok := slices.BinarySearch(t.docs, doc); ok {
			prods = append(prods, t.w*sc.ix.Weight(t.id, t.tf[i]))
		}
	}
	return vector.SumSorted(prods) / (sc.qn * dn)
}
