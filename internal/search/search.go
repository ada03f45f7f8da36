// Package search implements tasks 3–5 of the context-based paradigm: locate
// search contexts for a keyword query, search within the selected contexts,
// and rank the merged results by relevancy
//
//	R(p, q, ci) = w_prestige·Prestige_Score(p, ci) + w_matching·Text_Matching_Score(p, q)
//
// plus the plain keyword-search baselines the paper compares against
// (PubMed-style unranked listing and TF-IDF ranking over the whole corpus).
//
// The query hot path is engineered for throughput: context selection counts
// token overlaps in a dense per-context array (only contexts sharing a query
// token are visited), and Engine.Page scores the union of the selected
// contexts' member runs in a single index pass, then folds each selected
// context's prestige run into per-hit best-relevancy arrays and sorts once.
// Results are identical to the retained naive per-context implementation
// (see naive.go and the golden tests).
package search

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

// scoreRowHook, when non-nil, runs before each per-context scoring row.
// It is a fault-injection point for the cancellation tests (simulated slow
// scoring); production code never sets it.
var scoreRowHook func()

// keyIndexBits caps how many low bits of a sort key may carry the hit
// index (see rank); a hit list needing more takes the SortResults
// fallback. A variable so tests can force that fallback.
var keyIndexBits = 24

// Weights combine prestige and text-matching into the relevancy score.
type Weights struct {
	Prestige float64
	Matching float64
	// ContextWeighted multiplies the prestige term by the context's
	// selection score before merging, so prestige earned in a weakly
	// matching context cannot dominate the merged result list. The paper
	// leaves the merge step unspecified; this is our resolution (disable
	// for the literal R formula).
	ContextWeighted bool
}

// DefaultWeights returns the relevancy weights used by the experiments.
func DefaultWeights() Weights {
	return Weights{Prestige: 0.5, Matching: 0.5, ContextWeighted: true}
}

// Options configure one search invocation.
type Options struct {
	// Threshold drops, context by context, a relevancy below it: the fold
	// compares each context's R = w_p·P + w_m·M with it, as the naive
	// reference does, and the index pass is never filtered by it.
	Threshold float64
	// Limit caps the number of results (0 = unlimited); Offset skips the
	// first N results (pagination).
	Limit  int
	Offset int
	// MaxContexts caps how many contexts are selected for the query
	// (0 = default 8).
	MaxContexts int
	// MinContextMatch is the minimum query↔term-name overlap for a context
	// to be selected (0 = default 0.2).
	MinContextMatch float64
}

// Result is one ranked search result. The JSON form is the unrendered row
// of the shard wire protocol (internal/server), sent once per candidate row
// and never shown to a client, hence the one-letter keys: d(oc),
// r(elevancy), m(atch), p(restige), c(ontext). encoding/json writes a
// float64 in its shortest round-trip form, so a decoded row carries the
// engine's score bits and WorseResult orders it exactly as before the hop.
type Result struct {
	Doc corpus.PaperID `json:"d"`
	// Relevancy is the combined score R(p, q, ci) maximised over the
	// selected contexts containing the paper.
	Relevancy float64 `json:"r"`
	// Match and Prestige are the components at the maximising context;
	// Prestige is the effective value (context-weighted when the engine's
	// Weights.ContextWeighted is set).
	Match    float64 `json:"m"`
	Prestige float64 `json:"p"`
	// Context is the maximising context.
	Context ontology.TermID `json:"c"`
}

// Engine is the context-based search engine: an index and a prestige
// matrix with the context set it scores, bound by NewEngine.
type Engine struct {
	ix *index.Index
	// matrix is the prestige matrix the hot path reads: one run per
	// context, resolved once per fold row, over the context set it scores.
	matrix  *prestige.Matrix
	weights Weights
	// names lists the selectable contexts — scored contexts with an
	// ontology term — in ascending term-ID order; a context's position is
	// its ordinal in the dense selection tables.
	names []ontology.TermID
	// nameTokens[o] is |distinct name tokens| of names[o], the Jaccard
	// denominator piece; tokenCtxs maps a name token to the ascending
	// ordinals of the contexts whose name contains it, so selection only
	// visits contexts sharing ≥1 query token.
	nameTokens []int32
	tokenCtxs  map[string][]int32
	// pool recycles the per-query scratch across queries.
	pool sync.Pool
}

// scratch is the reusable per-query arena. Selection counts query∩name
// tokens in inter (all zero between queries, reset through touched); the
// merge keeps the union of the selected contexts' runs, the hit list, a
// dense doc→(hit index+1) table over every document of the index (sparsely
// reset: only the hit docs are zeroed), the per-hit fold state and the sort
// keys.
type scratch struct {
	inter   []int32
	touched []int32
	cands   []candidate

	union bitset.Set
	hits  []index.Hit
	hitOf []int32
	// bestR/bestP/bestI[j] are hit j's best relevancy so far, the effective
	// prestige behind it and the selection index of its context (-1: no
	// context has admitted the hit).
	bestR, bestP []float64
	bestI        []int32
	keys         []uint64
}

// resized returns s with length n, reusing its storage when it suffices;
// the contents are unspecified.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func (e *Engine) getScratch() *scratch {
	if sc, _ := e.pool.Get().(*scratch); sc != nil {
		return sc
	}
	return &scratch{inter: make([]int32, len(e.names)), hitOf: make([]int32, e.ix.Analyzer().Corpus().Len())}
}

// NewEngine assembles an engine from an index and a prestige matrix — a
// state file's, or the one the build's prestige.Score and PropagateMax
// produced — searching within the context set the matrix scores.
func NewEngine(ix *index.Index, matrix *prestige.Matrix, w Weights) *Engine {
	e := &Engine{ix: ix, matrix: matrix, weights: w, tokenCtxs: make(map[string][]int32)}
	tok := ix.Analyzer().Tokenizer()
	for _, ctx := range matrix.Contexts() {
		t := matrix.ContextSet().Ontology().Term(ctx)
		if t == nil {
			continue
		}
		o := int32(len(e.names))
		words := tok.Terms(t.Name)
		distinct := int32(0)
		for i, w := range words {
			if !slices.Contains(words[:i], w) {
				distinct++
				e.tokenCtxs[w] = append(e.tokenCtxs[w], o)
			}
		}
		e.names = append(e.names, ctx)
		e.nameTokens = append(e.nameTokens, distinct)
	}
	return e
}

// ContextScore is a candidate context for a query.
type ContextScore struct {
	Context ontology.TermID
	Score   float64
}

// SelectContexts implements task 3: rank scored contexts by the overlap of
// the query words with the context term's name (Jaccard over stemmed
// words), returning those above MinContextMatch, best first, capped at
// MaxContexts. Only contexts sharing at least one token with the query are
// visited (inverted token→contexts map built in NewEngine).
func (e *Engine) SelectContexts(query string, opts Options) []ContextScore {
	sel, _ := e.SelectContextsContext(context.Background(), query, opts)
	return sel
}

// SelectContextsContext is SelectContexts with cooperative cancellation:
// ctx is checked before candidate accumulation and after it. A completed
// call returns exactly what SelectContexts would; a cancelled call returns
// (nil, ctx.Err()).
func (e *Engine) SelectContextsContext(ctx context.Context, query string, opts Options) ([]ContextScore, error) {
	sc := e.getScratch()
	defer e.pool.Put(sc)
	return e.selectContexts(ctx, sc, e.ix.Analyzer().Tokenizer().Terms(query), opts)
}

// selectContexts is SelectContextsContext over the already tokenized query.
func (e *Engine) selectContexts(ctx context.Context, sc *scratch, qWords []string, opts Options) ([]ContextScore, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	maxCtx := opts.MaxContexts
	if maxCtx <= 0 {
		maxCtx = 8
	}
	minMatch := opts.MinContextMatch
	if minMatch <= 0 {
		minMatch = 0.2
	}
	if len(qWords) == 0 {
		return nil, nil
	}
	// inter[o] = |distinct query words ∩ distinct name words|: each distinct
	// query word bumps every context whose name contains it exactly once.
	nq := 0
	touched := sc.touched[:0]
	for i, w := range qWords {
		if slices.Contains(qWords[:i], w) {
			continue
		}
		nq++
		for _, o := range e.tokenCtxs[w] {
			if sc.inter[o] == 0 {
				touched = append(touched, o)
			}
			sc.inter[o]++
		}
	}
	sc.touched = touched
	cands := sc.cands[:0]
	for _, o := range touched {
		in := int(sc.inter[o])
		sc.inter[o] = 0
		// Jaccard: |q ∩ name| / |q ∪ name| over distinct stemmed words.
		union := nq + int(e.nameTokens[o]) - in
		if score := float64(in) / float64(union); score >= minMatch {
			cands = append(cands, candidate{score, o})
		}
	}
	sc.cands = cands
	slices.SortFunc(cands, candidate.compare)
	cands = cands[:min(len(cands), maxCtx)]
	out := make([]ContextScore, len(cands))
	for i, c := range cands {
		out[i] = ContextScore{e.names[c.ord], c.score}
	}
	return out, ctx.Err()
}

// candidate is a context that passed MinContextMatch, by ordinal.
type candidate struct {
	score float64
	ord   int32
}

// compare is the selection total order — score descending, ties by
// ascending term ID: ordinals ascend with term IDs.
func (a candidate) compare(b candidate) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return cmp.Compare(a.ord, b.ord)
}

// bind sets the selected contexts' members in the union the index pass is
// restricted to, a bitset over every document of the index. A context's
// members are its matrix run: the set's run for every selectable context,
// its in-range part on a shard's Slice.
func (e *Engine) bind(sc *scratch, ctxs []ContextScore) bitset.Set {
	sc.union = resized(sc.union, len(sc.hitOf)>>6+1)
	clear(sc.union)
	for _, c := range ctxs {
		for _, d := range e.matrix.Run(c.Context).Docs {
			sc.union[d>>6] |= 1 << (d & 63)
		}
	}
	return sc.union
}

// Search implements tasks 4 and 5: keyword search inside each selected
// context, relevancy scoring, and merging into a single ranked result set
// (per paper, the maximising context wins).
//
// Unlike the naive formulation (one index pass per context), the postings
// are walked once over the union of the selected contexts' paper sets; each
// selected context's prestige is then folded into the hits it contains, in
// selection order (see fold).
func (e *Engine) Search(query string, opts Options) []Result {
	out, _ := e.SearchContext(context.Background(), query, opts)
	return out
}

// SearchContext is Search with cooperative cancellation threaded through
// every stage — context selection, the union index pass, and the fold — so
// an abandoned or deadline-expired query stops within a few scoring rows
// instead of running to completion. A completed call returns exactly the
// results Search would (the golden tests pin this); a cancelled call
// returns (nil, ctx.Err()).
func (e *Engine) SearchContext(ctx context.Context, query string, opts Options) ([]Result, error) {
	out, _, err := e.Page(ctx, query, false, opts)
	return out, err
}

// SearchBooleanContext runs a context-based search with a boolean query
// (the index package's AND/OR/NOT/"phrase"/field:term language): context
// selection and the text-matching score use the query's positive terms,
// while the boolean structure filters candidates inside each selected
// context. Returns an error for unparsable or purely negative queries.
// Like SearchContext, the boolean evaluation and text scoring run once over
// the union of the selected contexts instead of once per context, and a
// cancelled call returns (nil, ctx.Err()).
func (e *Engine) SearchBooleanContext(ctx context.Context, query string, opts Options) ([]Result, error) {
	out, _, err := e.Page(ctx, query, true, opts)
	return out, err
}

// Page is the one query pipeline, for a boolean query (SearchBooleanContext)
// or a vector one (SearchContext). Besides the ranked results it returns the
// query's terms — Tokenizer.Terms of the query, for a query that parses —
// which it computes once, for context selection and the query vector alike,
// so a page renders its snippets from them (index.Index.Snippeter) without
// tokenizing the query again. The index hands over its hits unsorted: the
// merge ranks them by relevancy itself. An unparsable boolean query returns
// its parse error, no results and no terms.
func (e *Engine) Page(ctx context.Context, query string, boolean bool, opts Options) ([]Result, []string, error) {
	var q index.Query
	if boolean {
		var err error
		if q, err = e.ix.ParseQuery(query); err != nil {
			return nil, nil, err
		}
	}
	sc := e.getScratch()
	defer e.pool.Put(sc)
	words := e.ix.Analyzer().Tokenizer().Terms(query)
	ctxs, err := e.selectContexts(ctx, sc, words, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(ctxs) == 0 {
		return nil, words, nil
	}
	iopts := index.Options{WithinSet: e.bind(sc, ctxs)}
	if q != nil {
		sc.hits, err = e.ix.AppendQueryHits(ctx, q, iopts, sc.hits[:0])
	} else {
		sc.hits, err = e.ix.AppendVectorHits(ctx, e.ix.Analyzer().TermsVector(words), iopts, sc.hits[:0])
	}
	if err != nil {
		return nil, nil, err
	}
	merged, err := e.mergeHits(ctx, sc, ctxs, sc.hits, opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.Limit <= 0 {
		// Full lists are what batch callers ask for, back to back and
		// without ever blocking. With every processor held by such a caller
		// the collector's mark worker is scheduled only when one is forcibly
		// preempted, mark phases stretch tenfold and every list allocated
		// meanwhile counts as live: resident memory on the library_batch
		// benchmark read 18 % above the parent's, over its 15 % bound,
		// against 5 % with a yield per list (BENCH_PR15.json,
		// review_variants).
		runtime.Gosched()
	}
	return Paginate(merged, opts), words, nil
}

// WorseResult reports whether a ranks after b under SortResults (lower
// relevancy, ties by higher doc ID). Documents are unique within a result
// list, so this is a strict total order: the shard page merge picks rows
// by it, and a list is in SortResults order exactly when every row is
// worse than the row before it.
func WorseResult(a, b Result) bool {
	return a.Relevancy < b.Relevancy || (a.Relevancy == b.Relevancy && a.Doc > b.Doc)
}

// fold scores the hits against the selected contexts, in selection order,
// touching only the hits each context contains. A context's members among
// the hits, and their prestige — the run's value times the context weight
// — come from one scatter of its matrix run through the doc→hit table (the
// run is the context's membership, see bind), or, for a run much longer
// than the hit list, from a binary search of each hit in the run; each is
// admitted as it is found, so a context costs its members, not the hit
// list. The relevancy expression and the threshold test are the naive
// loop's, and a later context replaces an earlier one only on a strictly
// greater relevancy, so the first selected context keeps ties — as there.
// Cancellation is checked between context rows; a cancelled fold returns
// ctx.Err() with the doc→hit table reset.
func (e *Engine) fold(ctx context.Context, sc *scratch, ctxs []ContextScore, hits []index.Hit, threshold float64) error {
	n := len(hits)
	maxDoc := corpus.PaperID(0)
	for j, h := range hits {
		maxDoc = max(maxDoc, h.Doc)
		sc.hitOf[h.Doc] = int32(j + 1)
	}
	defer func() {
		for _, h := range hits {
			sc.hitOf[h.Doc] = 0
		}
	}()
	sc.bestR, sc.bestP, sc.bestI = resized(sc.bestR, n), resized(sc.bestP, n), resized(sc.bestI, n)
	for j := range sc.bestI {
		sc.bestI[j] = -1
	}
	wp, wm := e.weights.Prestige, e.weights.Matching
	// admit folds prestige p of hit j in the i-th selected context into the
	// hit's best: r = w_p·p + w_m·match, skipped below the threshold, taken
	// when the hit has no context yet or r is strictly greater than its best.
	admit := func(i, j int32, p float64) {
		rel := float64(wp*p) + float64(wm*hits[j].Score)
		if rel < threshold {
			return
		}
		if sc.bestI[j] < 0 || rel > sc.bestR[j] {
			sc.bestI[j], sc.bestR[j], sc.bestP[j] = i, rel, p
		}
	}
	for i, c := range ctxs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if h := scoreRowHook; h != nil {
			h()
		}
		run := e.matrix.Run(c.Context)
		w := 1.0
		if e.weights.ContextWeighted {
			w = c.Score
		}
		if len(run.Docs) <= n*8 {
			// Scatter the run through the dense doc→hit table: O(|run|) with
			// O(1) array reads. Docs are sorted, so the scan stops at the
			// last hit doc.
			for k, d := range run.Docs {
				if d > maxDoc {
					break
				}
				if j := sc.hitOf[d] - 1; j >= 0 {
					admit(int32(i), j, run.Vals[k]*w)
				}
			}
		} else {
			// Run much longer than the hit list: a binary search per hit over
			// the run's packed doc IDs wins.
			for j, h := range hits {
				if k, ok := slices.BinarySearch(run.Docs, h.Doc); ok {
					admit(int32(i), int32(j), run.Vals[k]*w)
				}
			}
		}
	}
	return nil
}

// result assembles folded hit j.
func (sc *scratch) result(ctxs []ContextScore, hits []index.Hit, j int) Result {
	return Result{
		Doc:       hits[j].Doc,
		Relevancy: sc.bestR[j],
		Match:     hits[j].Score,
		Prestige:  sc.bestP[j],
		Context:   ctxs[sc.bestI[j]].Context,
	}
}

// mergeHits turns one union-pass hit list (sc bound to ctxs), in any
// order, into ranked results: for every hit, the relevancy R(p, q, ci) is
// computed in every selected context containing the paper, and the
// maximising context wins. A page request (Limit > 0) gets the ranked
// prefix that holds its page, a full list every result; either way the
// results are in SortResults order and byte-identical to the naive
// reference's (the golden tests pin this).
func (e *Engine) mergeHits(ctx context.Context, sc *scratch, ctxs []ContextScore, hits []index.Hit, opts Options) ([]Result, error) {
	if len(hits) == 0 {
		return nil, ctx.Err()
	}
	if err := e.fold(ctx, sc, ctxs, hits, opts.Threshold); err != nil {
		return nil, err
	}
	prefix := 0
	if opts.Limit > 0 {
		prefix = max(opts.Offset, 0) + opts.Limit
	}
	return sc.rank(ctxs, hits, prefix), nil
}

// rank returns the folded hits that a context admitted, in SortResults
// order, sorting one 8-byte key per result instead of the results: the
// complement of the relevancy's bit pattern — for non-negative floats, bit
// order is numeric order — with the low bits replaced by the hit index.
// Keys that agree above the index bits stand for relevancies equal up to
// the truncation, exact ties included; each such run is put in exact order
// by SortResults. A positive prefix builds results for only the first
// prefix keys, extended to the end of the run the cut lands in, so every
// run is still ordered whole. A negative or NaN relevancy, or a hit list
// whose indexes need more than keyIndexBits bits, sorts all the results
// themselves.
func (sc *scratch) rank(ctxs []ContextScore, hits []index.Hit, prefix int) []Result {
	const infBits = 0x7FF << 52
	shift := bits.Len(uint(len(hits) - 1))
	mask := uint64(1)<<shift - 1
	sortable := shift <= keyIndexBits
	keys := sc.keys[:0]
	for j, i := range sc.bestI[:len(hits)] {
		if i < 0 {
			continue
		}
		b := math.Float64bits(sc.bestR[j])
		sortable = sortable && b <= infBits
		keys = append(keys, ^b&^mask|uint64(j))
	}
	sc.keys = keys
	if sortable {
		slices.Sort(keys)
		if prefix > 0 && prefix < len(keys) {
			for prefix < len(keys) && keys[prefix]>>shift == keys[prefix-1]>>shift {
				prefix++
			}
			keys = keys[:prefix]
		}
	}
	out := make([]Result, len(keys))
	for k, key := range keys {
		out[k] = sc.result(ctxs, hits, int(key&mask))
	}
	if !sortable {
		SortResults(out)
		return out
	}
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>shift == keys[lo]>>shift {
			hi++
		}
		if hi-lo > 1 {
			SortResults(out[lo:hi])
		}
		lo = hi
	}
	return out
}

// SortResults orders results by descending relevancy, ties by ascending
// document ID. The comparator is a total order (documents are unique within
// a result list), so the unstable sort still yields a deterministic,
// naive-identical ordering; slices.SortFunc avoids sort.Slice's
// reflection-based swapper on the query hot path.
func SortResults(out []Result) {
	slices.SortFunc(out, func(a, b Result) int {
		if a.Relevancy != b.Relevancy {
			if a.Relevancy > b.Relevancy {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
}

// Paginate applies Offset/Limit to a ranked result list. An offset at or
// past the end returns an empty, non-nil slice: "a valid page past the
// last result" is distinct from "the query produced nothing" (nil), and
// the server encodes the former as [] rather than null. A limit larger
// than the remaining results returns just the remainder — never an
// over-slice.
func Paginate(out []Result, opts Options) []Result {
	if opts.Offset > 0 {
		if opts.Offset >= len(out) {
			return []Result{}
		}
		out = out[opts.Offset:]
	}
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
	}
	return out
}

// BaselineTFIDF is the whole-corpus TF-IDF ranked keyword search (the
// "simple text-based score" of ACM Portal / Google Scholar in the paper's
// intro).
func BaselineTFIDF(ix *index.Index, query string, threshold float64, limit int) []index.Hit {
	return ix.Search(query, index.Options{Threshold: threshold, Limit: limit})
}

// BaselinePubMed mimics PubMed's behaviour in the paper's intro: all
// keyword matches (any positive cosine), listed in descending PMID order —
// no relevance ranking at all.
func BaselinePubMed(ix *index.Index, query string) []corpus.PaperID {
	hits := ix.Search(query, index.Options{})
	out := make([]corpus.PaperID, len(hits))
	for i, h := range hits {
		out[i] = h.Doc
	}
	c := ix.Analyzer().Corpus()
	slices.SortFunc(out, func(a, b corpus.PaperID) int {
		return cmp.Compare(c.Paper(b).PMID, c.Paper(a).PMID)
	})
	return out
}
