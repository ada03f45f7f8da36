// Package index implements the inverted-index keyword search substrate.
// Both the plain PubMed-style baseline and the per-context searches of the
// context-based engine run on it; the AC-answer-set construction uses its
// high-threshold mode to seed answer sets.
//
// The index is laid out for query throughput: terms are the analyzer's
// dense dictionary IDs and postings live in flat CSR-style arrays, so a
// query walks contiguous memory instead of chasing map buckets. A term's
// postings are grouped into segments of ascending paper IDs that share one
// term frequency, stored once: the TF-IDF weight (1 + ln tf)·idf is a
// function of that small integer and of the analyzer's DF table, derived by
// the analyzer's own arithmetic, so every weight has the bits the
// analyzer's row gives (see Weight). Scoring accumulates
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
	// Postings grouped by TF: term t's segments are first[t] <= s <
	// first[t+1], in ascending TF; segment s holds the papers
	// docs[start[s]:start[s+1]], ascending, whose term frequency for t is
	// tf[s] >= 1. A paper has at most one posting per term.
	first []int32
	start []int32
	tf    []uint16
	docs  []corpus.PaperID
	norms []float64
	// idf is the analyzer's per-term IDF, and logTF[k] = 1 + ln k the TF
	// damping for every 1 <= k <= the largest segment TF (logTF[0] is
	// unused): a posting's weight is float64(logTF[tf]·idf[t]).
	idf   []float64
	logTF []float64
	// accPool recycles dense score accumulators across searches.
	accPool sync.Pool
	// words is the snippets' word table: trimmed raw word of paper text →
	// its normalised form and Porter stem.
	words wordTable
}

// accum is a reusable dense scoring scratchpad: val holds partial dot
// products indexed by doc, seen marks touched docs, touched lists them so
// reset is O(hits) not O(corpus).
type accum struct {
	val     []float64
	seen    []bool
	touched []corpus.PaperID
}

// newIndex returns an index over the analyzer and the segmented postings,
// with its accumulator pool and the damping table the largest TF sizes.
func newIndex(a *corpus.Analyzer, first, start []int32, tf []uint16, docs []corpus.PaperID, norms []float64) *Index {
	ix := &Index{
		analyzer: a,
		first:    first,
		start:    start,
		tf:       tf,
		docs:     docs,
		norms:    norms,
		idf:      a.DF().IDFs(),
		logTF:    []float64{0},
	}
	for _, f := range tf {
		for k := len(ix.logTF); k <= int(f); k++ {
			ix.logTF = append(ix.logTF, logTF(k))
		}
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
// frequency tf (1 <= tf <= the largest segment TF): (1 + ln tf)·idf(t), the
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
// at precomputed disjoint cursors; segment then groups each term's run by
// TF. The output is byte-identical at every worker count: per-term counts
// are order-independent integer sums, because shards are contiguous ID
// ranges, writing shard s's postings after all of shard s-1's reproduces
// exactly the ascending-doc runs of the sequential build, and a term's
// segments depend on its run alone. workers <= 0 selects GOMAXPROCS.
//
// A posting keeps the term frequency its weight was computed from (see
// tfOf). BuildWorkers returns an error, naming the paper and the term, if a
// weight is not (1 + ln tf)·idf for an integer 1 <= tf <= 65535 — the width
// of a segment's TF — bit for bit: a loaded corpus can repeat a word more
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

	// Pass 2 (sharded): fill the runs and each posting's TF. Within a shard,
	// visiting papers in ascending ID order leaves every term's posting run
	// sorted by doc with no per-term sort — exactly as in the sequential
	// build.
	total := offsets[nTerms]
	docs := make([]corpus.PaperID, total)
	tf := make([]uint16, total)
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
			}
		}
	})
	// The first failing shard holds the lowest paper ID that fails.
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	first, start, segTF := segment(offsets, docs, tf, workers)
	return newIndex(a, first, start, segTF, docs, norms), nil
}

// segment groups each term's run docs[offsets[t]:offsets[t+1]] (ascending,
// tf aligned) in place into segments of one TF, ascending, with papers
// ascending within each, sharded by term: a term keeps its span of docs, and
// shards' segment lists are concatenated in term order. It returns each
// term's first segment, each segment's start (one more closing the last)
// and TF.
func segment(offsets []int32, docs []corpus.PaperID, tf []uint16, workers int) (first, start []int32, segTF []uint16) {
	nt := len(offsets) - 1
	first = make([]int32, nt+1)
	shards := par.Shards(nt, workers)
	starts, tfs := make([][]int32, len(shards)), make([][]uint16, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		// next[k] counts the run's postings of TF k, then is the write
		// cursor of its segment; its whole capacity is zero between terms.
		var next []int32
		var run []corpus.PaperID
		for t := sh.Lo; t < sh.Hi; t++ {
			lo, hi := offsets[t], offsets[t+1]
			for _, k := range tf[lo:hi] {
				if int(k) >= len(next) {
					next = slices.Grow(next, int(k)+1-len(next))[:k+1]
				}
				next[k]++
			}
			at := lo
			for k, cnt := range next {
				if cnt > 0 {
					starts[si], tfs[si] = append(starts[si], at), append(tfs[si], uint16(k))
					next[k], at = at, at+cnt
				}
			}
			run = append(run[:0], docs[lo:hi]...)
			for j, k := range tf[lo:hi] {
				docs[next[k]] = run[j]
				next[k]++
			}
			clear(next)
			next = next[:0]
			first[t+1] = int32(len(tfs[si]))
		}
	})
	for si, sh := range shards {
		for t := sh.Lo; t < sh.Hi; t++ {
			first[t+1] += int32(len(segTF))
		}
		start, segTF = append(start, starts[si]...), append(segTF, tfs[si]...)
	}
	return first, append(start, offsets[nt]), segTF
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

// Segments returns the segments of a term ID, lo <= s < hi in ascending
// TF; Segment reads each.
func (ix *Index) Segments(t int32) (lo, hi int32) {
	return ix.first[t], ix.first[t+1]
}

// Segment returns segment s's papers, ascending, and the full-text term
// frequency each has for the segment's term; Weight turns the TF into their
// postings' TF-IDF weight. The slice aliases the index and must not be
// modified.
func (ix *Index) Segment(s int32) ([]corpus.PaperID, uint16) {
	return ix.docs[ix.start[s]:ix.start[s+1]], ix.tf[s]
}

// tfTable returns a term ID's TF for every paper, 0 where it has none (nil
// for corpus.NoTerm): one load per lookup instead of a search of each of a
// frequent term's dozens of segments.
func (ix *Index) tfTable(t int32) []uint16 {
	if t < 0 {
		return nil
	}
	tfs := make([]uint16, len(ix.norms))
	for s := ix.first[t]; s < ix.first[t+1]; s++ {
		docs, f := ix.Segment(s)
		for _, d := range docs {
			tfs[d] = f
		}
	}
	return tfs
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
func (ix *Index) Terms() int { return len(ix.first) - 1 }

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
		// weight w. Its papers sharing a TF, a segment computes it once.
		qw, idf := qt.w, ix.idf[qt.id]
		lo, hi := ix.Segments(qt.id)
		for s := lo; s < hi; s++ {
			docs, f := ix.Segment(s)
			prod := float64(qw * float64(ix.logTF[f]*idf))
			for _, doc := range docs {
				if restricted && !opts.allows(doc) {
					continue
				}
				if !acc.seen[doc] {
					acc.seen[doc] = true
					acc.touched = append(acc.touched, doc)
				}
				acc.val[doc] += prod
			}
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
// postings: the query's indexed terms with their TF tables, resolved once.
// Not safe for concurrent use (prods is scratch).
type textScorer struct {
	ix    *Index
	qn    float64 // ‖q‖
	terms []scorerTerm
	prods []float64
}

// scorerTerm is one query term: its ID, query weight and TF table.
type scorerTerm struct {
	id int32
	w  float64
	tf []uint16
}

// newTextScorer resolves the query's terms (through resolveQuery, like the
// vector pass) and fills their TF tables.
func (ix *Index) newTextScorer(qv vector.Sparse) textScorer {
	qts := ix.resolveQuery(qv)
	sc := textScorer{ix: ix, qn: qv.Norm(), terms: make([]scorerTerm, len(qts)), prods: make([]float64, 0, len(qts))}
	for i, qt := range qts {
		sc.terms[i] = scorerTerm{qt.id, qt.w, ix.tfTable(qt.id)}
	}
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
		if f := t.tf[doc]; f != 0 {
			prods = append(prods, t.w*sc.ix.Weight(t.id, f))
		}
	}
	return vector.SumSorted(prods) / (sc.qn * dn)
}
