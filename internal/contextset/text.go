package contextset

import (
	"sort"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/par"
	"ctxsearch/internal/vector"
)

// BuildTextBased constructs the text-based context paper set: for every
// context with annotation evidence papers, the evidence paper closest to
// the evidence centroid becomes the representative, and every corpus paper
// whose full-text TF-IDF cosine to the representative reaches
// cfg.TextThreshold joins the context. ix must index the whole corpus.
//
// The cosines are computed term-at-a-time over the index rather than as
// papers × contexts map-keyed dot products: per context, the postings of the
// representative's terms yield every product w_rep·w_doc, grouped by paper
// (count, then fill), and each group that can be kept (see the bound in the
// loop) is reduced by vector.SumSorted and divided by ‖rep‖·‖doc‖. That is
// the multiset of products, the summation order and the division
// vector.CosineWithNorms performs, so every kept similarity has the same bits.
// Contexts fan out over cfg.Workers; each worker needs scratch for one
// representative only.
func BuildTextBased(ix *index.Index, onto *ontology.Ontology, cfg Config) *ContextSet {
	a := ix.Analyzer()
	b := newBuilder(TextBased, onto)
	c := a.Corpus()
	// terms ascends by term ID, so a context's ordinal orders like its ID.
	var terms []ontology.TermID
	for _, term := range c.EvidenceTerms() {
		if onto.Term(term) == nil {
			continue
		}
		b.reps[term] = chooseRepresentative(a, c.EvidencePapers(term))
		terms = append(terms, term)
	}

	n, m := c.Len(), cfg.TopContextsPerPaper
	norms := make([]float64, n)
	for d := range norms {
		norms[d] = a.Row(corpus.PaperID(d), corpus.WholeText).Norm
	}
	// members[i] collects context i's thresholded papers in paper order;
	// each worker also keeps, per paper, the best m below-threshold contexts
	// of its shard (generic papers join the broad contexts they match best,
	// even with low absolute similarity).
	members := make([][]cand, len(terms))
	shards := par.Shards(len(terms), cfg.Workers)
	tops := make([]topLists, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		sc := textScratch{count: make([]int32, n), start: make([]int32, n+1)}
		top := newTopLists(n, m)
		for i := sh.Lo; i < sh.Hi; i++ {
			rep := b.reps[terms[i]]
			sc.gather(ix, a.Row(rep, corpus.WholeText))
			repNorm := norms[rep]
			for d, dn := range norms {
				var sim float64
				if run := sc.prods[sc.start[d]:sc.start[d+1]]; len(run) > 0 && repNorm != 0 && dn != 0 {
					// Bound, then verify: non-negative products summed in any order
					// land within 1e-12 relative of the sorted sum and the division
					// is the same monotone one, so a pair whose inflated bound reaches
					// neither the threshold nor the paper's full top-m list would be
					// dropped whatever its exact value. Only the others are sorted.
					var s float64
					for _, x := range run {
						s += x
					}
					hi := s / (repNorm * dn) * (1 + 1e-9)
					skip := hi < cfg.TextThreshold && (m == 0 || len(top.of(d)) == m && hi < top.of(d)[m-1].sim)
					if pairHook != nil {
						pairHook(!skip)
					}
					if !skip {
						sim = vector.SumSorted(run) / (repNorm * dn)
					}
				}
				if sim >= cfg.TextThreshold {
					members[i] = append(members[i], cand{corpus.PaperID(d), sim})
				} else if m > 0 && sim > 0 {
					top.offer(d, ctxSim{int32(i), sim})
				}
			}
		}
		tops[si] = top
	})

	// A paper's global top m are among the shards' top m; the order is total
	// (ordinals are distinct), so the merge does not depend on the sharding.
	var best []ctxSim
	for d := 0; m > 0 && d < n; d++ {
		best = best[:0]
		for _, top := range tops {
			best = append(best, top.of(d)...)
		}
		sort.Slice(best, func(x, y int) bool { return best[x].before(best[y]) })
		if len(best) > m {
			best = best[:m]
		}
		for _, e := range best {
			members[e.ctx] = append(members[e.ctx], cand{corpus.PaperID(d), e.sim})
		}
	}

	for i, term := range terms {
		cands := members[i]
		if cfg.MaxPerContext > 0 && len(cands) > cfg.MaxPerContext {
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].sim != cands[j].sim {
					return cands[i].sim > cands[j].sim
				}
				return cands[i].id < cands[j].id
			})
			cands = cands[:cfg.MaxPerContext]
		}
		for _, cd := range cands {
			b.add(term, cd.id, cd.sim)
		}
		// Evidence papers always belong to their context.
		for _, e := range c.EvidencePapers(term) {
			b.add(term, e, 1)
		}
	}
	return b.finish()
}

// pairHook, when non-nil, is told for each (context, paper) pair sharing a
// term whether it was sorted. Tests count with it; production never sets it.
var pairHook func(sorted bool)

// cand is one candidate member of a context.
type cand struct {
	id  corpus.PaperID
	sim float64
}

// ctxSim is one candidate context of a paper, by ordinal.
type ctxSim struct {
	ctx int32
	sim float64
}

// before is the total order of a paper's candidate contexts: similarity
// descending, then term ID ascending.
func (e ctxSim) before(o ctxSim) bool {
	if e.sim != o.sim {
		return e.sim > o.sim
	}
	return e.ctx < o.ctx
}

// textScratch holds one representative's products grouped by paper: paper
// d's are prods[start[d]:start[d+1]]. count is all zero between gathers.
type textScratch struct {
	count []int32
	start []int32
	prods []float64
	runs  []postingRun
}

// postingRun is the posting run of one term of the representative, with the
// representative's weight for the term.
type postingRun struct {
	w       float64
	docs    []corpus.PaperID
	weights []float64
}

// gather fills the scratch with w_rep·w_doc for every term the
// representative shares with each paper.
func (sc *textScratch) gather(ix *index.Index, rep corpus.Row) {
	sc.runs = sc.runs[:0]
	for i, t := range rep.Terms {
		docs, weights := ix.Postings(t)
		sc.runs = append(sc.runs, postingRun{rep.Weights[i], docs, weights})
		for _, d := range docs {
			sc.count[d]++
		}
	}
	// count becomes each paper's fill cursor, and ends as the next start.
	var total int32
	for d, cnt := range sc.count {
		sc.start[d] = total
		sc.count[d] = total
		total += cnt
	}
	sc.start[len(sc.count)] = total
	if cap(sc.prods) < int(total) {
		sc.prods = make([]float64, total)
	}
	sc.prods = sc.prods[:total]
	for _, r := range sc.runs {
		for k, d := range r.docs {
			sc.prods[sc.count[d]] = r.w * r.weights[k]
			sc.count[d]++
		}
	}
	clear(sc.count)
}

// topLists keeps, per paper, up to m candidate contexts, best first.
type topLists struct {
	m    int
	ents []ctxSim // paper d's list is ents[d*m : d*m+n[d]]
	n    []int32
}

func newTopLists(papers, m int) topLists {
	return topLists{m: m, ents: make([]ctxSim, papers*m), n: make([]int32, papers)}
}

// of returns paper d's list.
func (t topLists) of(d int) []ctxSim { return t.ents[d*t.m : d*t.m+int(t.n[d])] }

// offer inserts e into paper d's list if it ranks among the best m.
func (t topLists) offer(d int, e ctxSim) {
	list := t.ents[d*t.m : (d+1)*t.m]
	k := int(t.n[d])
	if k == t.m {
		if !e.before(list[k-1]) {
			return
		}
		k--
	} else {
		t.n[d]++
	}
	for ; k > 0 && e.before(list[k-1]); k-- {
		list[k] = list[k-1]
	}
	list[k] = e
}
