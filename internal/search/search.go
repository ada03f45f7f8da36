// Package search implements tasks 3–5 of the context-based paradigm: locate
// search contexts for a keyword query, search within the selected contexts,
// and rank the merged results by relevancy
//
//	R(p, q, ci) = w_prestige·Prestige_Score(p, ci) + w_matching·Text_Matching_Score(p, q)
//
// plus the plain keyword-search baselines the paper compares against
// (PubMed-style unranked listing and TF-IDF ranking over the whole corpus).
//
// The query hot path is engineered for throughput: context selection walks
// an inverted token→contexts map (only contexts sharing a query token are
// visited), and Search/SearchBoolean score the union of the selected
// contexts' paper bitsets in a single index pass, distributing each hit to
// its contexts by O(1) bitset membership and fanning the per-context
// relevancy computation over a worker pool. Results are identical to the
// retained naive per-context implementation (see naive.go and the golden
// tests).
package search

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/topk"
)

// parallelMergeThreshold is the ctxs×hits work size below which per-context
// scoring stays serial (the goroutine overhead isn't worth it). It is a
// variable rather than a constant so the fault-injection tests can force
// the worker-pool path on small fixtures.
var parallelMergeThreshold = 4096

// scoreRowHook, when non-nil, runs before each per-context scoring row.
// It is a fault-injection point for the cancellation tests (simulated slow
// scoring); production code never sets it.
var scoreRowHook func()

// topkChunk is the minimum hit-window size of the bounded top-k merge.
// A variable so tests can shrink it and exercise multi-window runs (and
// the early-termination break) on small fixtures.
var topkChunk = 256

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
	// Threshold drops results with relevancy below it.
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
	// ExpandContexts additionally selects contexts semantically close (Lin
	// similarity) to the best word-overlap match — users phrasing a concept
	// without its exact term words still reach the right subtree.
	ExpandContexts bool
	// MinExpandSim is the Lin similarity floor for expansion (0 = 0.5).
	MinExpandSim float64
}

// Result is one ranked search result.
type Result struct {
	Doc corpus.PaperID
	// Relevancy is the combined score R(p, q, ci) maximised over the
	// selected contexts containing the paper.
	Relevancy float64
	// Match and Prestige are the components at the maximising context;
	// Prestige is the effective value (context-weighted when the engine's
	// Weights.ContextWeighted is set).
	Match    float64
	Prestige float64
	// Context is the maximising context.
	Context ontology.TermID
}

// Engine is the context-based search engine. Construct with NewEngine after
// prestige scores have been computed for the context set.
type Engine struct {
	ix *index.Index
	cs *contextset.ContextSet
	// matrix is the frozen CSR prestige matrix the hot path reads: one
	// packed run per context, resolved once per merge row, each hit looked
	// up by binary search over int32 doc IDs instead of two chained map
	// lookups.
	matrix *prestige.Matrix
	// scores is the map form the engine was built from, retained only for
	// the naive reference implementation (nil when built via
	// NewEngineFrozen; production paths never read it).
	scores  prestige.Scores
	weights Weights
	// termTokens caches tokenized term names for context selection.
	termTokens map[ontology.TermID][]string
	// tokenCtxs inverts termTokens: for every distinct token of a term
	// name, the contexts whose name contains it (sorted by term ID).
	// SelectContexts only visits contexts sharing ≥1 query token instead
	// of scanning every scored context.
	tokenCtxs map[string][]ontology.TermID
	// distinctTokens caches |distinct name tokens| per context — the
	// Jaccard denominator piece that used to be recomputed per query.
	distinctTokens map[ontology.TermID]int
	// mergePool recycles mergeHits' scratch buffers (the partial-score slab
	// and the dense doc→hit table) across queries.
	mergePool sync.Pool
}

// mergeScratch is the reusable per-merge arena: one flat slab backing all
// per-context partial rows, and a dense doc→(hit index+1) table through
// which each context's CSR run is scattered — O(1) per run entry instead of
// one binary search per (context, hit) pair. The table is sparsely reset
// (only the hit docs are zeroed) when the merge returns it to the pool.
type mergeScratch struct {
	rows  []float64
	hitOf []int32
}

// NewEngine assembles an engine from an index, a context paper set and the
// prestige scores computed over it. The map form is frozen into the CSR
// matrix the query path reads; the map itself is kept only as the naive
// reference's score source.
func NewEngine(ix *index.Index, cs *contextset.ContextSet, scores prestige.Scores, w Weights) *Engine {
	e := NewEngineFrozen(ix, cs, scores.Freeze(), w)
	e.scores = scores
	return e
}

// NewEngineFrozen assembles an engine directly from a frozen prestige
// matrix — the cold-start path when the matrix was loaded from a v2 state
// file, skipping the freeze entirely.
func NewEngineFrozen(ix *index.Index, cs *contextset.ContextSet, matrix *prestige.Matrix, w Weights) *Engine {
	e := &Engine{
		ix:             ix,
		cs:             cs,
		matrix:         matrix,
		weights:        w,
		termTokens:     make(map[ontology.TermID][]string),
		tokenCtxs:      make(map[string][]ontology.TermID),
		distinctTokens: make(map[ontology.TermID]int),
	}
	tok := ix.Analyzer().Tokenizer()
	for _, ctx := range matrix.Contexts() {
		if t := cs.Ontology().Term(ctx); t != nil {
			words := tok.Terms(t.Name)
			e.termTokens[ctx] = words
			seen := make(map[string]bool, len(words))
			for _, w := range words {
				if !seen[w] {
					seen[w] = true
					e.tokenCtxs[w] = append(e.tokenCtxs[w], ctx)
				}
			}
			e.distinctTokens[ctx] = len(seen)
		}
	}
	for _, ctxs := range e.tokenCtxs {
		sort.Slice(ctxs, func(i, j int) bool { return ctxs[i] < ctxs[j] })
	}
	return e
}

// SetTopKWorkers sets the underlying index's default intra-query
// parallelism for bounded top-k queries (see index.Options.TopKWorkers).
// Call before serving queries.
func (e *Engine) SetTopKWorkers(n int) { e.ix.SetDefaultTopKWorkers(n) }

// TopKStats exposes the index's top-k evaluator counters — the server
// surfaces them per generation under /stats.
func (e *Engine) TopKStats() index.TopKStats { return e.ix.TopKStats() }

// ResetTopKStats zeroes the evaluator counters; the server calls it when a
// generation is installed so /stats reads per-generation.
func (e *Engine) ResetTopKStats() { e.ix.ResetTopKStats() }

// TokenTablePapers exposes how many papers the index's phrase/field token
// table holds — surfaced under /stats beside the analyzer's analysed-paper
// count.
func (e *Engine) TokenTablePapers() int { return e.ix.TokenTablePapers() }

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
// candidate accumulation and semantic expansion check ctx between stages. A
// completed call returns exactly what SelectContexts would; a cancelled
// call returns (nil, ctx.Err()).
func (e *Engine) SelectContextsContext(ctx context.Context, query string, opts Options) ([]ContextScore, error) {
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
	qWords := e.ix.Analyzer().Tokenizer().Terms(query)
	if len(qWords) == 0 {
		return nil, nil
	}
	qSet := make(map[string]bool, len(qWords))
	for _, w := range qWords {
		qSet[w] = true
	}
	// inter[ctx] = |distinct query words ∩ distinct name words|, counted
	// via the inverted map: each distinct query word bumps every context
	// whose name contains it exactly once.
	inter := make(map[ontology.TermID]int)
	for w := range qSet {
		for _, ctx := range e.tokenCtxs[w] {
			inter[ctx]++
		}
	}
	cands := make([]ContextScore, 0, len(inter))
	for ctx, in := range inter {
		// Jaccard: |q ∩ name| / |q ∪ name| over distinct stemmed words.
		union := len(qSet) + e.distinctTokens[ctx] - in
		score := float64(in) / float64(union)
		if score >= minMatch {
			cands = append(cands, ContextScore{ctx, score})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].Context < cands[j].Context
	})
	if opts.ExpandContexts && len(cands) > 0 {
		expanded, err := e.expandSemantically(ctx, cands, opts)
		if err != nil {
			return nil, err
		}
		cands = expanded
	}
	if len(cands) > maxCtx {
		cands = cands[:maxCtx]
	}
	return cands, ctx.Err()
}

// expandSemantically adds scored contexts semantically close to the best
// word-overlap match, scored by Lin similarity damped below the anchor's
// score so expansions never outrank direct matches. The scan over all
// scored contexts checks cancellation periodically.
func (e *Engine) expandSemantically(ctx context.Context, cands []ContextScore, opts Options) ([]ContextScore, error) {
	minSim := opts.MinExpandSim
	if minSim <= 0 {
		minSim = 0.5
	}
	anchor := cands[0]
	have := make(map[ontology.TermID]bool, len(cands))
	for _, c := range cands {
		have[c.Context] = true
	}
	onto := e.cs.Ontology()
	var extra []ContextScore
	visited := 0
	for tid := range e.termTokens {
		if visited&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		visited++
		if have[tid] {
			continue
		}
		if lin := onto.LinSimilarity(anchor.Context, tid); lin >= minSim {
			extra = append(extra, ContextScore{tid, anchor.Score * lin * 0.9})
		}
	}
	sort.Slice(extra, func(i, j int) bool {
		if extra[i].Score != extra[j].Score {
			return extra[i].Score > extra[j].Score
		}
		return extra[i].Context < extra[j].Context
	})
	out := append(cands, extra...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

// unionBitset ORs the paper bitsets of the selected contexts.
func (e *Engine) unionBitset(ctxs []ContextScore) bitset.Set {
	var union bitset.Set
	for _, c := range ctxs {
		union.UnionWith(e.cs.PaperBitset(c.Context))
	}
	return union
}

// Search implements tasks 4 and 5: keyword search inside each selected
// context, relevancy scoring, and merging into a single ranked result set
// (per paper, the maximising context wins).
//
// Unlike the naive formulation (one index pass per context), the postings
// are walked once over the union of the selected contexts' paper sets; each
// hit is then distributed to the contexts containing it by bitset
// membership, with the per-context relevancy computation fanned over a
// worker pool and merged deterministically in context order.
func (e *Engine) Search(query string, opts Options) []Result {
	out, _ := e.SearchContext(context.Background(), query, opts)
	return out
}

// SearchContext is Search with cooperative cancellation threaded through
// every stage — context selection, the union index pass, and the parallel
// per-context scoring pool — so an abandoned or deadline-expired query
// stops within a few scoring rows instead of running to completion. A
// completed call returns exactly the results Search would (the golden
// tests pin this); a cancelled call returns (nil, ctx.Err()).
func (e *Engine) SearchContext(ctx context.Context, query string, opts Options) ([]Result, error) {
	ctxs, err := e.SelectContextsContext(ctx, query, opts)
	if err != nil {
		return nil, err
	}
	if len(ctxs) == 0 {
		return nil, nil
	}
	qv := e.ix.Analyzer().QueryVector(query)
	iopts := index.Options{WithinSet: e.unionBitset(ctxs), Threshold: e.indexThreshold(ctxs, opts)}
	hits, err := e.ix.SearchVectorContext(ctx, qv, iopts)
	if err != nil {
		return nil, err
	}
	merged, err := e.mergeHits(ctx, ctxs, hits, opts)
	if err != nil {
		return nil, err
	}
	return Paginate(merged, opts), nil
}

// SearchBoolean runs a context-based search with a boolean query (the
// index package's AND/OR/NOT/"phrase"/field:term language): context
// selection and the text-matching score use the query's positive terms,
// while the boolean structure filters candidates inside each selected
// context. Returns an error for unparsable or purely negative queries.
// Like Search, the boolean evaluation and text scoring run once over the
// union of the selected contexts instead of once per context.
func (e *Engine) SearchBoolean(query string, opts Options) ([]Result, error) {
	return e.SearchBooleanContext(context.Background(), query, opts)
}

// SearchBooleanContext is SearchBoolean with cooperative cancellation (see
// SearchContext for the semantics).
func (e *Engine) SearchBooleanContext(ctx context.Context, query string, opts Options) ([]Result, error) {
	q, err := e.ix.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	ctxs, err := e.SelectContextsContext(ctx, query, opts)
	if err != nil {
		return nil, err
	}
	if len(ctxs) == 0 {
		return nil, nil
	}
	iopts := index.Options{WithinSet: e.unionBitset(ctxs), Threshold: e.indexThreshold(ctxs, opts)}
	hits, err := e.ix.SearchQueryContext(ctx, q, iopts)
	if err != nil {
		return nil, err
	}
	merged, err := e.mergeHits(ctx, ctxs, hits, opts)
	if err != nil {
		return nil, err
	}
	return Paginate(merged, opts), nil
}

// prestigeBound returns the largest effective prestige any paper can
// attain in the selected contexts: the maximum over contexts of the
// prestige row maximum times the context weight. Multiplication by a
// non-negative weight is monotone in IEEE arithmetic, so every stored
// score obeys the bound exactly — the pruning built on it needs no
// epsilon.
func (e *Engine) prestigeBound(ctxs []ContextScore) float64 {
	var bound float64
	for _, c := range ctxs {
		w := 1.0
		if e.weights.ContextWeighted {
			w = c.Score
		}
		if b := e.matrix.Run(c.Context).Max * w; b > bound {
			bound = b
		}
	}
	return bound
}

// indexThreshold derives a cosine-score floor for the index pass from the
// relevancy threshold: a merged result needs w_p·prestige + w_m·match ≥
// Threshold, and prestige never exceeds prestigeBound, so hits matching
// below (Threshold − w_p·bound)/w_m can never survive the merge. The
// division makes the algebra inexact, so the floor is deflated (1e-9
// relative and 1e-12 absolute) and then verified against the monotone
// bound expression the merge actually obeys; when even the deflated floor
// can't be proven safe, the filter is skipped — correctness never depends
// on it.
func (e *Engine) indexThreshold(ctxs []ContextScore, opts Options) float64 {
	w := e.weights
	if opts.Threshold <= 0 || w.Matching <= 0 || w.Prestige < 0 {
		return 0
	}
	bound := w.Prestige * e.prestigeBound(ctxs)
	t := (opts.Threshold-bound)/w.Matching*(1-1e-9) - 1e-12
	if t <= 0 {
		return 0
	}
	// Every dropped hit has match < t, and relevancy ≤ bound + w_m·match ≤
	// bound + w_m·t by float monotonicity; require that to sit strictly
	// under the threshold the merge loop compares against.
	if bound+w.Matching*t >= opts.Threshold {
		return 0
	}
	return t
}

// WorseResult is the bounded-merge heap order: a is worse than b when it
// ranks later under SortResults (lower relevancy, ties by higher doc ID).
// Documents are unique within a result list, so this is a strict total
// order and the selected top k equal the full sort's prefix exactly.
func WorseResult(a, b Result) bool {
	return a.Relevancy < b.Relevancy || (a.Relevancy == b.Relevancy && a.Doc > b.Doc)
}

// merger carries the scratch state shared by the exhaustive and bounded
// merge paths: the pooled arena, the per-context membership bitsets, and
// the partial-score rows of the current hit window.
type merger struct {
	e      *Engine
	ctxs   []ContextScore
	member []bitset.Set
	ms     *mergeScratch
	// partial[i][j] is the effective prestige of the current window's
	// j-th hit in ctxs[i], -1 when the paper is outside the context.
	// Workers write disjoint rows (slices of the arena slab).
	partial [][]float64
}

func (e *Engine) newMerger(ctxs []ContextScore) *merger {
	ms, _ := e.mergePool.Get().(*mergeScratch)
	if ms == nil {
		ms = &mergeScratch{}
	}
	member := make([]bitset.Set, len(ctxs))
	for i, c := range ctxs {
		member[i] = e.cs.PaperBitset(c.Context)
	}
	return &merger{e: e, ctxs: ctxs, member: member, ms: ms, partial: make([][]float64, len(ctxs))}
}

func (m *merger) close() { m.e.mergePool.Put(m.ms) }

// score fills m.partial for one window of hits, fanning the per-context
// rows over a worker pool when the window is large enough (mirrors
// prestige.ScoreAllParallel).
//
// Cancellation: workers check ctx between context rows (skipping rows
// once it fires) and the feeder stops handing out work, so the pool
// drains promptly with no goroutine leaks. A cancelled call returns
// ctx.Err() with the scratch state already reset.
func (m *merger) score(ctx context.Context, hits []index.Hit) error {
	e, ms := m.e, m.ms
	maxDoc := 0
	for _, h := range hits {
		if int(h.Doc) > maxDoc {
			maxDoc = int(h.Doc)
		}
	}
	if len(ms.hitOf) <= maxDoc {
		ms.hitOf = make([]int32, maxDoc+1)
	}
	for j, h := range hits {
		ms.hitOf[h.Doc] = int32(j + 1)
	}
	// Sparse reset before returning: only the table entries this window
	// touched. The partial rows stay valid for the caller's merge loop.
	defer func() {
		for _, h := range hits {
			ms.hitOf[h.Doc] = 0
		}
	}()
	need := len(m.ctxs) * len(hits)
	if cap(ms.rows) < need {
		ms.rows = make([]float64, need)
	}
	rows := ms.rows[:need]
	for i := range m.partial {
		m.partial[i] = rows[i*len(hits) : (i+1)*len(hits)]
	}
	scoreCtx := func(i int) {
		if h := scoreRowHook; h != nil {
			h()
		}
		row := m.partial[i]
		c := m.ctxs[i]
		mb := m.member[i]
		run := e.matrix.Run(c.Context)
		w := 1.0
		if e.weights.ContextWeighted {
			w = c.Score
		}
		for j, h := range hits {
			if mb.Contains(int(h.Doc)) {
				row[j] = 0
			} else {
				row[j] = -1
			}
		}
		if len(run.Docs) <= len(hits)*8 {
			// Scatter the context's CSR run through the dense doc→hit table:
			// O(|run|) with O(1) array reads. Docs are sorted, so the scan
			// stops at the last hit doc.
			hitOf := ms.hitOf
			for k, d := range run.Docs {
				if int(d) > maxDoc {
					break
				}
				if j := hitOf[d]; j > 0 && row[j-1] >= 0 {
					row[j-1] = run.Vals[k] * w
				}
			}
		} else {
			// Run much longer than the hit list: per-hit binary search over
			// the run's packed doc IDs wins.
			for j, h := range hits {
				if row[j] >= 0 {
					row[j] = run.Get(h.Doc) * w
				}
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(m.ctxs) {
		workers = len(m.ctxs)
	}
	if workers <= 1 || len(m.ctxs)*len(hits) < parallelMergeThreshold {
		for i := range m.ctxs {
			if err := ctx.Err(); err != nil {
				return err
			}
			scoreCtx(i)
		}
		return nil
	}
	var wg sync.WaitGroup
	work := make(chan int)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// Check between context rows; keep receiving so the
				// feeder never blocks on a dead pool.
				if ctx.Err() != nil {
					continue
				}
				scoreCtx(i)
			}
		}()
	}
feed:
	for i := range m.ctxs {
		select {
		case work <- i:
		case <-done:
			break feed
		}
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}

// mergeRow resolves one hit of the current window against every selected
// context: the maximising context wins (first in selection order on ties,
// matching the naive per-context loop), and hits whose best relevancy
// falls under the threshold report ok=false.
func (m *merger) mergeRow(j int, h index.Hit, opts Options) (Result, bool) {
	e := m.e
	bestI := -1
	var bestR float64
	for i := range m.ctxs {
		p := m.partial[i][j]
		if p < 0 {
			continue // not a member (prestige itself is ≥ 0)
		}
		r := e.weights.Prestige*p + e.weights.Matching*h.Score
		if r < opts.Threshold {
			continue
		}
		if bestI < 0 || r > bestR {
			bestI, bestR = i, r
		}
	}
	if bestI < 0 {
		return Result{}, false
	}
	return Result{
		Doc:       h.Doc,
		Relevancy: bestR,
		Match:     h.Score,
		Prestige:  m.partial[bestI][j],
		Context:   m.ctxs[bestI].Context,
	}, true
}

// boundedK returns the selection size offset+limit when the bounded
// top-k merge applies, and 0 when the exhaustive merge must run: no
// limit was requested, the page covers the whole hit list anyway, or a
// negative weight breaks the upper-bound algebra the pruning rests on.
func (e *Engine) boundedK(opts Options, nhits int) int {
	if opts.Limit <= 0 || opts.Offset < 0 || e.weights.Prestige < 0 || e.weights.Matching < 0 {
		return 0
	}
	k := opts.Offset + opts.Limit
	if k >= nhits {
		return 0
	}
	return k
}

// mergeHits turns one union-pass hit list into ranked results: for every
// hit, the relevancy R(p, q, ci) is computed in every selected context
// containing the paper, and the maximising context wins. The merge visits
// contexts in selection order, so the output is deterministic and
// independent of worker scheduling.
//
// When the caller asked for a page (Limit > 0), the bounded path keeps
// only the offset+limit best results in a selection heap and prunes with
// the per-query prestige bound; otherwise every surviving hit is ranked.
// Both paths return results in SortResults order, byte-identical to the
// naive reference for the requested page (the golden tests pin this).
func (e *Engine) mergeHits(ctx context.Context, ctxs []ContextScore, hits []index.Hit, opts Options) ([]Result, error) {
	if len(hits) == 0 {
		return nil, ctx.Err()
	}
	m := e.newMerger(ctxs)
	defer m.close()
	if k := e.boundedK(opts, len(hits)); k > 0 {
		return m.mergeTopK(ctx, hits, opts, k)
	}
	if err := m.score(ctx, hits); err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(hits))
	for j, h := range hits {
		if j&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if res, ok := m.mergeRow(j, h, opts); ok {
			out = append(out, res)
		}
	}
	SortResults(out)
	return out, nil
}

// mergeTopK is the bounded merge: hits are processed in windows of
// descending match score, every surviving result is offered to a
// k-bounded selection heap, and the loop stops as soon as the window's
// best attainable relevancy — w_p·prestigeBound + w_m·(window's top match
// score), an exact upper bound because every operation is monotone in
// IEEE arithmetic — can no longer beat the heap's k-th result or reach
// the threshold. Work done is proportional to the page actually served,
// not the hit count, while the returned page is byte-identical to the
// exhaustive merge's prefix: scores are computed by the same float
// expressions, and the heap's (relevancy, doc) order is the total order
// SortResults uses.
func (m *merger) mergeTopK(ctx context.Context, hits []index.Hit, opts Options, k int) ([]Result, error) {
	e := m.e
	bound := e.weights.Prestige * e.prestigeBound(m.ctxs)
	heap := topk.New(k, WorseResult)
	chunk := k
	if chunk < topkChunk {
		chunk = topkChunk
	}
	for lo := 0; lo < len(hits); lo += chunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// hits[lo] has the window's (and every later window's) best match
		// score, so this bound only decreases: break, don't skip.
		ub := bound + e.weights.Matching*hits[lo].Score
		if ub < opts.Threshold || (heap.Full() && ub < heap.Min().Relevancy) {
			break
		}
		hi := lo + chunk
		if hi > len(hits) {
			hi = len(hits)
		}
		win := hits[lo:hi]
		if err := m.score(ctx, win); err != nil {
			return nil, err
		}
		for j, h := range win {
			if res, ok := m.mergeRow(j, h, opts); ok {
				heap.Offer(res)
			}
		}
	}
	out := heap.Items()
	SortResults(out)
	return out, nil
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
	sort.Slice(out, func(i, j int) bool {
		return c.Paper(out[i]).PMID > c.Paper(out[j]).PMID
	})
	return out
}
