package index

import (
	"context"
	"math"
	"slices"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/vector"
)

// This file implements the exact Block-Max MaxScore top-k evaluation mode
// of SearchVectorContext: when a query asks for a bounded result page
// (Options.Limit > 0), the postings are walked document-at-a-time with
// rank-safe dynamic pruning instead of scoring every matching document.
//
// The machinery rests on per-term maxima computed at build time, at two
// granularities:
//
//   - maxWeight[t] / maxRatio[t]: the largest posting weight and the
//     largest weight/‖doc‖ over all of term t's postings, giving
//     document-independent bounds on t's contribution in dot and cosine
//     space;
//   - blockMaxWeight / blockMaxRatio: the same maxima restricted to
//     fixed-size blocks of blockSize postings (see Index.blockOffsets).
//     A block's bound applies to every document whose posting lies in the
//     block — and, because a term's postings are strictly ascending, to
//     every document ≤ the block's last doc that the cursor has not yet
//     passed.
//
// Query terms are processed in descending cosine-bound order. A running
// threshold θ — the worst score in the bounded top-k heap once it fills,
// or Options.Threshold before that — splits them into an essential prefix
// and a non-essential suffix whose cumulative bound cannot reach θ: no
// document containing only non-essential terms can enter the result page,
// so candidate enumeration walks only the essential postings. Block maxima
// then prune inside that walk at two points:
//
//   - block-level range skip: the walk caches a fence — the nearest block
//     boundary over the live essential cursors — and evaluates candidates
//     at or below it on a fast path that never touches block state.
//     Crossing the fence triggers one refresh that re-sums the essential
//     cursors' current block bounds; while that sum (plus the
//     non-essential tail) cannot reach θ, no document up to the fence can
//     qualify, and every essential cursor jumps past the fence without
//     evaluating anything;
//   - non-essential probe shortcut: before paying a seek, a probed term's
//     contribution is bounded by its block maximum at the candidate,
//     advanced block-wise (no binary search) — a miss is detected from
//     block fences alone.
//
// Exactness (rank-safety) is preserved down to the last bit:
//
//   - every pruning comparison uses an upper bound inflated by boundSlack,
//     absorbing the ULP-level differences between the bound's float
//     summation order and the true score's. Per-candidate dot-space bounds
//     are compared in scaled space — b·(qn·dn) against θ·(qn·dn) — trading
//     the per-candidate division for one multiply per comparison; the ≤1
//     ULP the extra rounding can shift a comparison is orders of magnitude
//     below the slack, so pruning stays conservative;
//   - a surviving candidate's score is re-summed in ascending term-ID
//     order — exactly the accumulation order of the exhaustive path — so
//     returned scores are byte-identical to SearchVector's;
//   - threshold comparisons prune strictly below (score == Threshold is
//     kept), and a full heap prunes at bound ≤ θ: candidates arrive in
//     ascending document order, so a later candidate tying the heap
//     minimum loses the ascending-doc tiebreak anyway.
//
// A block size at least as long as the longest posting run leaves one block
// per term, bounded by the global maxima — plain MaxScore.
//
// The golden equivalence tests (topk_test.go) assert byte-identical pages
// against the exhaustive path across randomized (k, threshold, restriction,
// block size) combinations.

// boundSlack multiplicatively inflates floating-point upper bounds before
// pruning comparisons. Reordering an n-term float sum perturbs it by at
// most n·ε relative (ε = 2⁻⁵²); 1e-9 covers n up to ~10⁶ query terms,
// far beyond any real query or centroid, at a negligible loss of pruning
// power.
const boundSlack = 1 + 1e-9

// worseHit orders hits ascending by score, ties by descending doc — the
// inverse of the returned (score desc, doc asc) page order, as the top-k
// heap requires.
func worseHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// termCursor is one query term's posting cursor in the top-k walk.
type termCursor struct {
	docs []corpus.PaperID
	ws   []float64
	pos  int
	// qi is the term's position in the term-ID-sorted query (the exact
	// re-summation order); qw its query weight.
	qi int
	qw float64
	// ubCos bounds the term's cosine contribution for any document
	// (qw·maxRatio/‖q‖); ubDot bounds its dot-product contribution
	// (qw·maxWeight).
	ubCos float64
	ubDot float64
	// cosScale converts a weight/‖doc‖ ratio into the term's cosine
	// contribution bound (qw/‖q‖).
	cosScale float64
	// bmw/bmr are the term's per-block maxima and bsize the
	// postings-per-block granularity.
	bmw, bmr []float64
	bsize    int
	// Cached bounds of the block containing pos, refreshed by syncBlock
	// once pos crosses blkEnd: blkEnd is the first position past the
	// block, blkLast the block's last document, blkCos/blkDot its cosine/
	// dot contribution bounds.
	blkEnd  int
	blkLast corpus.PaperID
	blkCos  float64
	blkDot  float64
}

// syncBlock refreshes the cached block bounds after the cursor advanced
// past its block fence. The cursor must not be exhausted.
func (c *termCursor) syncBlock() {
	if c.pos < c.blkEnd {
		return
	}
	n := len(c.docs)
	b := c.pos / c.bsize
	end := (b + 1) * c.bsize
	if end > n {
		end = n
	}
	c.blkEnd = end
	c.blkLast = c.docs[end-1]
	c.blkCos = c.cosScale * c.bmr[b]
	c.blkDot = c.qw * c.bmw[b]
}

// seek advances the cursor to the first posting with doc ≥ target
// (galloping then binary search — candidates arrive in ascending order, so
// the cursor only ever moves forward) and reports the weight when the
// target is present.
func (c *termCursor) seek(target corpus.PaperID) (float64, bool) {
	lo := c.pos
	n := len(c.docs)
	if lo >= n {
		return 0, false
	}
	if c.docs[lo] >= target {
		c.pos = lo
		if c.docs[lo] == target {
			return c.ws[lo], true
		}
		return 0, false
	}
	// Gallop to bracket the target, then binary search the bracket.
	step := 1
	hi := lo + 1
	for hi < n && c.docs[hi] < target {
		lo = hi
		hi += step
		step *= 2
	}
	if hi > n {
		hi = n
	}
	i, j := lo+1, hi
	for i < j {
		h := int(uint(i+j) >> 1)
		if c.docs[h] < target {
			i = h + 1
		} else {
			j = h
		}
	}
	c.pos = i
	if i < n && c.docs[i] == target {
		return c.ws[i], true
	}
	return 0, false
}

// advanceFiltered steps the cursor past its current posting, and on past
// every posting outside the query's restriction, returning the next
// admissible document (docSentinel when exhausted). Filtering during the
// advance keeps restricted-out documents from ever surfacing as candidates
// in the main loop.
func (c *termCursor) advanceFiltered(opts *Options, restricted bool) corpus.PaperID {
	for {
		c.pos++
		if c.pos >= len(c.docs) {
			return docSentinel
		}
		d := c.docs[c.pos]
		if !restricted || opts.allows(d) {
			return d
		}
	}
}

// blockProbe positions the cursor at the first block that could contain
// target and returns that block's dot-space contribution bound, or
// (0, false) when the target provably has no posting. Whole blocks are
// stepped over by their last-doc fence without touching their postings,
// and a miss is detected from the first live doc of the landing block, so
// the common non-essential miss costs no binary search. Safe because probe
// targets arrive in ascending order: every skipped posting precedes a
// fence below the target.
func (c *termCursor) blockProbe(target corpus.PaperID) (float64, bool) {
	n := len(c.docs)
	if c.pos >= n {
		return 0, false
	}
	c.syncBlock()
	for c.blkLast < target {
		c.pos = c.blkEnd
		if c.pos >= n {
			return 0, false
		}
		c.syncBlock()
	}
	if c.docs[c.pos] > target {
		return 0, false
	}
	return c.blkDot, true
}

// topkScratch is the pooled per-query state of the top-k evaluator: the
// resolved query, cursors, suffix bound tables, the per-candidate
// contribution pairs, and the result heap.
type topkScratch struct {
	qts     []queryTerm
	keys    []cursorKey
	cur     []termCursor
	curDoc  []corpus.PaperID
	tailCos []float64
	tailDot []float64
	contrib []float64
	present []int
	norm    []float64
	heap    hitHeap
}

// docSentinel marks an exhausted cursor in the flat current-doc array: it
// compares above every real document ID, so the min-scan needs no
// exhaustion branch.
const docSentinel = corpus.PaperID(math.MaxInt)

// growDocs returns a PaperID slice of length n, reusing s's storage when
// it suffices.
func growDocs(s []corpus.PaperID, n int) []corpus.PaperID {
	if cap(s) < n {
		return make([]corpus.PaperID, n)
	}
	return s[:n]
}

// cursorKey is the sortable projection of a term cursor: its position in
// the term-ID-sorted query and its cosine bound.
type cursorKey struct {
	qi    int32
	ubCos float64
}

// growKeys returns a key slice of length n, reusing s's storage when it
// suffices.
func growKeys(s []cursorKey, n int) []cursorKey {
	if cap(s) < n {
		return make([]cursorKey, n)
	}
	return s[:n]
}

// getTopkScratch leases query scratch from the per-index pool.
func (ix *Index) getTopkScratch() *topkScratch {
	if sc, ok := ix.topkPool.Get().(*topkScratch); ok {
		return sc
	}
	return &topkScratch{}
}

// growF64 returns a float64 slice of length n, reusing s's storage when it
// suffices.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growCursors returns a cursor slice of length n, reusing s's storage when
// it suffices. Callers overwrite every element.
func growCursors(s []termCursor, n int) []termCursor {
	if cap(s) < n {
		return make([]termCursor, n)
	}
	return s[:n]
}

// growInts returns an int slice of capacity ≥ n and length 0, reusing s's
// storage when it suffices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, 0, n)
	}
	return s[:0]
}

// resolveQueryNormInto makes a single pass over the query vector,
// collecting both the resolvable terms (sorted by term ID, appended into
// caller-owned storage) and the squared weights of every term — the inputs
// to the exact query norm, which the caller finishes with
// vector.NormOfSquares. Folding norm collection into resolution halves the
// map iterations the top-k setup pays; the norm is order-independent (the
// squares are re-sorted before summation), so it is bit-identical to
// qv.Norm().
func (ix *Index) resolveQueryNormInto(qv vector.Sparse, qts []queryTerm, sq []float64) ([]queryTerm, []float64) {
	for term, w := range qv {
		sq = append(sq, w*w)
		if id := ix.termID(term); id != corpus.NoTerm {
			qts = append(qts, queryTerm{id, w})
		}
	}
	sortQueryTerms(qts)
	return qts, sq
}

// cannotQualify reports whether a document with upper-bounded score b
// (already slack-inflated) is provably outside the result page. Threshold
// prunes strictly below (equality is kept); a full heap prunes at b ≤ θ
// because any later candidate tying the heap minimum has a larger doc ID
// and loses the tiebreak.
func cannotQualify(b, threshold float64, heap *hitHeap) bool {
	if !(b > 0) || b < threshold {
		return true
	}
	return heap.Full() && b <= heap.Min().Score
}

// cannotQualifyScaled is cannotQualify with both sides multiplied by the
// candidate's positive norm product qn·dn: xb is the slack-inflated
// dot-space bound (score bound × qn·dn) and tScaled the threshold on the
// same scale. Multiplying both sides of each comparison by the same
// positive factor preserves it up to 1 ULP of rounding — absorbed by
// boundSlack — and saves the division per candidate.
func cannotQualifyScaled(xb, tScaled, scale float64, heap *hitHeap) bool {
	if !(xb > 0) || xb < tScaled {
		return true
	}
	return heap.Full() && xb <= heap.Min().Score*scale
}

// searchTopKAppend is the Limit > 0 evaluation mode of SearchVectorContext.
// It resolves the query, then runs the block-max evaluation appending to dst
// exactly the page the exhaustive path would return: the Limit best hits by
// (score desc, doc asc), filtered by Threshold, scores bit-identical. All
// evaluator state lives in pooled scratch, so with a reused dst the query
// performs zero steady-state heap allocations. On cancellation dst is
// returned unextended with ctx's error.
func (ix *Index) searchTopKAppend(ctx context.Context, qv vector.Sparse, opts Options, dst []Hit) ([]Hit, error) {
	sc := ix.getTopkScratch()
	defer ix.topkPool.Put(sc)
	sq := sc.norm
	if cap(sq) < len(qv) {
		sq = make([]float64, 0, len(qv))
	} else {
		sq = sq[:0]
	}
	qts, sq := ix.resolveQueryNormInto(qv, sc.qts[:0], sq)
	sc.qts, sc.norm = qts, sq
	if len(qts) == 0 {
		return dst, ctx.Err()
	}
	qn := vector.NormOfSquares(sq)
	if qn == 0 {
		return dst, ctx.Err()
	}
	// Order the terms by descending cosine bound (ties by query position
	// for determinism) on lightweight keys, then build each fat cursor
	// directly in its final slot — sorting termCursors themselves would
	// shuffle ~160-byte structs.
	keys := growKeys(sc.keys, len(qts))
	sc.keys = keys
	for i, qt := range qts {
		keys[i] = cursorKey{qi: int32(i), ubCos: qt.w * ix.maxRatio[qt.id] / qn}
	}
	slices.SortFunc(keys, func(a, b cursorKey) int {
		switch {
		case a.ubCos > b.ubCos:
			return -1
		case a.ubCos < b.ubCos:
			return 1
		}
		return int(a.qi) - int(b.qi)
	})
	visited, skipped, err := ix.evalRange(ctx, sc, qts, keys, qn, &opts)
	ix.statVisited.Add(visited)
	if skipped != 0 {
		ix.statSkipped.Add(skipped)
	}
	if err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, sc.heap.Items()...)
	sortTopKPage(dst[start:])
	return dst, ctx.Err()
}

// evalRange runs the block-max MaxScore walk over the index's whole
// document range, leaving the qualifying page in sc.heap. qts and keys are
// the resolved query and its descending-bound cursor order, read-only
// here. The pruning counters are returned for the caller to flush.
func (ix *Index) evalRange(ctx context.Context, sc *topkScratch, qts []queryTerm, keys []cursorKey, qn float64, opts *Options) (visited, skipped uint64, err error) {
	cur := growCursors(sc.cur, len(qts))
	sc.cur = cur
	for j, k := range keys {
		qt := qts[k.qi]
		docs, ws := ix.Postings(qt.id)
		blo, bhi := ix.blockOffsets[qt.id], ix.blockOffsets[qt.id+1]
		cur[j] = termCursor{
			docs: docs, ws: ws, qi: int(k.qi), qw: qt.w,
			ubCos:    k.ubCos,
			ubDot:    qt.w * ix.maxWeight[qt.id],
			cosScale: qt.w / qn,
			bmw:      ix.blockMaxWeight[blo:bhi],
			bmr:      ix.blockMaxRatio[blo:bhi],
			bsize:    ix.blockSize,
			pos:      -1,
		}
	}
	// curDoc mirrors each essential cursor's current document in a flat
	// array the candidate min-scan can sweep without touching the fat
	// cursor structs; exhausted cursors park at docSentinel. Cursors start
	// on their first admissible posting: advanceFiltered applies the
	// restriction during every advance, so documents outside it are (with
	// one backstop exception at block-skip landings) never even enumerated.
	restricted := opts.restricted()
	curDoc := growDocs(sc.curDoc, len(cur))
	sc.curDoc = curDoc
	for i := range cur {
		curDoc[i] = cur[i].advanceFiltered(opts, restricted)
	}
	// tailCos[i] / tailDot[i] bound the total contribution of the term
	// suffix cur[i:] in cosine / dot space.
	tailCos := growF64(sc.tailCos, len(cur)+1)
	tailDot := growF64(sc.tailDot, len(cur)+1)
	sc.tailCos, sc.tailDot = tailCos, tailDot
	tailCos[len(cur)], tailDot[len(cur)] = 0, 0
	for i := len(cur) - 1; i >= 0; i-- {
		tailCos[i] = tailCos[i+1] + cur[i].ubCos
		tailDot[i] = tailDot[i+1] + cur[i].ubDot
	}

	heap := &sc.heap
	heap.Reset(opts.Limit)
	// nEss delimits the essential prefix: the suffix cur[nEss:] is
	// non-essential once its cumulative bound cannot qualify. Re-checked
	// whenever the heap threshold rises.
	nEss := len(cur)
	for nEss > 0 && cannotQualify(tailCos[nEss-1]*boundSlack, opts.Threshold, heap) {
		nEss--
	}

	// present/contrib hold the current candidate's gathered contributions
	// as parallel (query-term position, qw·w product) pairs indexed by np,
	// re-sorted by term position only for candidates that survive to exact
	// re-scoring. A candidate touches at most len(qts) pairs, so sizing to
	// that keeps the writes in bounds without append bookkeeping.
	contrib := growF64(sc.contrib, len(qts))
	sc.contrib = contrib
	present := growInts(sc.present, len(qts))
	present = present[:len(qts)]
	sc.present = present
	np := 0
	steps := 0
	// fence is the nearest essential block boundary: the minimum, over the
	// live essential cursors, of the last document in the cursor's current
	// block. Candidates at or below the fence are evaluated on a fast path
	// that never touches block state; crossing it triggers one refresh
	// that re-sums the block bounds and range-skips every provably
	// unproductive block run before evaluation resumes. The fence is
	// deliberately allowed to go stale as cursors advance within the
	// refresh's blocks — a cursor entering a new block only raises its
	// block-last, so a stale fence is merely conservative (refreshing
	// earlier than strictly needed), never wrong. -1 forces the first
	// refresh.
	fence := corpus.PaperID(-1)
	for nEss > 0 {
		if steps&cancelCheckMask == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return visited, skipped, cerr
			}
		}
		steps++
		// Next candidate: the minimum document under the essential cursors.
		minDoc := docSentinel
		for i := 0; i < nEss; i++ {
			if d := curDoc[i]; d < minDoc {
				minDoc = d
			}
		}
		if minDoc == docSentinel {
			break // essential postings exhausted: no further doc can qualify
		}
		if minDoc > fence {
			// Crossed into a new block configuration: refresh the cached
			// bounds and skip whole block runs while their combined bound
			// cannot qualify. rangeCos bounds the essential contribution of
			// every document up to the fence (a term's postings are strictly
			// ascending, so any unseen posting with doc ≤ its cursor's
			// blkLast lies inside the cursor's current block).
			for {
				rangeCos := 0.0
				fence = -1
				for i := 0; i < nEss; i++ {
					if curDoc[i] == docSentinel {
						continue
					}
					c := &cur[i]
					c.syncBlock()
					rangeCos += c.blkCos
					if fence < 0 || c.blkLast < fence {
						fence = c.blkLast
					}
				}
				if fence < 0 {
					break // every essential cursor exhausted
				}
				if !cannotQualify((rangeCos+tailCos[nEss])*boundSlack, opts.Threshold, heap) {
					break // this block range may hold a qualifying doc
				}
				for i := 0; i < nEss; i++ {
					if curDoc[i] > fence {
						continue
					}
					c := &cur[i]
					before := c.pos
					c.seek(fence + 1)
					skipped += uint64(c.pos - before)
					// Re-apply the restriction filter at the landing
					// posting (seek is filter-blind): the cursor's doc is
					// ≤ fence < target, so the seek advanced pos by at
					// least one and stepping back before the filtered
					// advance is safe.
					c.pos--
					curDoc[i] = c.advanceFiltered(opts, restricted)
				}
			}
			if fence < 0 {
				break
			}
			// Re-derive the candidate from the post-skip cursor positions
			// (minDoc ≤ fence holds on re-entry: each live cursor's current
			// doc is inside its current block, so the minimum doc cannot
			// exceed the minimum block-last).
			continue
		}
		// Candidates arrive pre-filtered — every cursor advance, including
		// block-skip landings, applies the restriction — leaving zero-norm
		// documents as the only backstop reject.
		dn := ix.norms[minDoc]
		if dn == 0 {
			// The candidate can never score: step the essential cursors past
			// it without gathering contributions.
			for i := 0; i < nEss; i++ {
				if curDoc[i] == minDoc {
					curDoc[i] = cur[i].advanceFiltered(opts, restricted)
				}
			}
			continue
		}
		visited++
		// Gather essential contributions as (term position, qw·w product)
		// pairs, advancing their cursors past the candidate.
		essDot := 0.0
		for i := 0; i < nEss; i++ {
			if curDoc[i] != minDoc {
				continue
			}
			c := &cur[i]
			v := c.qw * c.ws[c.pos]
			contrib[np] = v
			present[np] = c.qi
			np++
			essDot += v
			curDoc[i] = c.advanceFiltered(opts, restricted)
		}
		{
			// All per-candidate bounds compare in scaled (dot × slack)
			// space — see cannotQualifyScaled — so the division by qn·dn
			// happens once, for survivors only.
			scale := qn * dn
			tScaled := opts.Threshold * scale
			// Candidate bound with its true norm: essential contributions
			// plus the non-essential dot-space tail.
			xb := (essDot + tailDot[nEss]) * boundSlack
			if !cannotQualifyScaled(xb, tScaled, scale, heap) {
				// Probe non-essential terms, highest bound first, dropping
				// each term's bound from the residual as it resolves. A
				// block probe first tightens the term's bound to its local
				// block maximum — often killing the candidate, or proving
				// the term absent, without a binary search.
				remaining := tailDot[nEss]
				survived := true
				for i := nEss; i < len(cur); i++ {
					c := &cur[i]
					remaining -= c.ubDot
					// Manually inlined blockProbe fast path: the cursor sits
					// inside a synced block that spans the candidate, so the
					// block's cached bound applies (or the current doc already
					// exceeds the candidate: a miss) without the call.
					var bd float64
					var maybe bool
					if c.pos < c.blkEnd && c.blkLast >= minDoc {
						if c.docs[c.pos] > minDoc {
							bd, maybe = 0, false
						} else {
							bd, maybe = c.blkDot, true
						}
					} else {
						bd, maybe = c.blockProbe(minDoc)
					}
					if maybe {
						xb = (essDot + remaining + bd) * boundSlack
						if cannotQualifyScaled(xb, tScaled, scale, heap) {
							survived = false
							break
						}
						if w, ok := c.seek(minDoc); ok {
							v := c.qw * w
							contrib[np] = v
							present[np] = c.qi
							np++
							essDot += v
						}
					}
					xb = (essDot + remaining) * boundSlack
					if cannotQualifyScaled(xb, tScaled, scale, heap) {
						survived = false
						break
					}
				}
				if survived {
					// Exact score: re-sum in ascending term-ID order — the
					// exhaustive path's accumulation order: each pair's
					// product was computed from the same operands the
					// exhaustive dot product multiplies, and absent terms
					// contribute an exact +0 there, so sorting the pairs by
					// term position and summing reproduces its rounding bit
					// for bit.
					for a := 1; a < np; a++ {
						qi, v := present[a], contrib[a]
						b := a
						for b > 0 && present[b-1] > qi {
							present[b], contrib[b] = present[b-1], contrib[b-1]
							b--
						}
						present[b], contrib[b] = qi, v
					}
					var dot float64
					for k := 0; k < np; k++ {
						dot += contrib[k]
					}
					score := dot / (qn * dn)
					if score >= opts.Threshold && score > 0 {
						if heap.Offer(Hit{minDoc, score}) {
							for nEss > 0 && cannotQualify(tailCos[nEss-1]*boundSlack, opts.Threshold, heap) {
								nEss--
							}
						}
					}
				}
			}
		}
		np = 0
	}
	return visited, skipped, nil
}

// sortTopKPage sorts a result page in the returned (score desc, doc asc)
// order. Small pages — the common top-10 — use a direct insertion sort,
// skipping the indirect comparator calls of the general path.
func sortTopKPage(hits []Hit) {
	if len(hits) > 32 {
		sortHits(hits)
		return
	}
	for i := 1; i < len(hits); i++ {
		h := hits[i]
		j := i
		for j > 0 && (hits[j-1].Score < h.Score ||
			(hits[j-1].Score == h.Score && hits[j-1].Doc > h.Doc)) {
			hits[j] = hits[j-1]
			j--
		}
		hits[j] = h
	}
}
