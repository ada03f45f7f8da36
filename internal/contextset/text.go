package contextset

import (
	"cmp"
	"slices"
	"sort"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/par"
	"ctxsearch/internal/vector"
)

// BuildTextBased constructs the text-based context paper set: for every
// context with annotation evidence papers, every corpus paper whose
// full-text TF-IDF cosine to the context's Representative reaches
// cfg.TextThreshold joins the context. ix must index the whole corpus.
//
// The cosines are computed term-at-a-time over the index rather than as
// papers × contexts map-keyed dot products. The index groups each term's
// postings into segments of one TF, so of one weight, and every posting of
// a segment adds the same product w_rep·w_doc; per context, the
// representative's segments are ordered by product and walked in that
// order, adding each segment's product into a dense per-paper accumulator.
// Every paper so receives its products in ascending order — equal products
// commute — which is the multiset, the summation order and, divided by
// ‖rep‖·‖doc‖, the division vector.CosineWithNorms performs, so every
// similarity has the same bits with no per-pair sort. Contexts fan out over
// cfg.Workers; each worker needs scratch for one representative only.
func BuildTextBased(ix *index.Index, onto *ontology.Ontology, cfg Config) *ContextSet {
	a := ix.Analyzer()
	c := a.Corpus()
	b := newBuilder(TextBased, onto, c.Len())
	// terms ascends by term ID, so a context's ordinal orders like its ID.
	var terms []ontology.TermID
	for _, term := range c.EvidenceTerms() {
		if onto.Term(term) != nil {
			terms = append(terms, term)
		}
	}

	n, m := c.Len(), cfg.TopContextsPerPaper
	norms := ix.Parts().Norms // the whole-text rows' norms
	// members[i] collects context i's thresholded papers in paper order;
	// each worker also keeps, per paper, the best m below-threshold contexts
	// of its shard (generic papers join the broad contexts they match best,
	// even with low absolute similarity).
	members := make([][]cand, len(terms))
	shards := par.Shards(len(terms), cfg.Workers)
	tops := make([]topLists, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		acc := make([]float64, n)
		var order segOrder
		top := newTopLists(n, m)
		for i := sh.Lo; i < sh.Hi; i++ {
			rep, _ := Representative(a, terms[i]) // an evidence term has one
			for _, e := range order.of(ix, a.Row(rep, corpus.WholeText)) {
				docs, _ := ix.Segment(e.seg)
				for _, d := range docs {
					acc[d] += e.prod
				}
			}
			repNorm := norms[rep]
			for d, s := range acc {
				// A paper sharing no term with the representative, or either norm
				// being zero, has similarity exactly 0, as in CosineWithNorms.
				var sim float64
				if s != 0 && repNorm != 0 && norms[d] != 0 {
					sim = s / (repNorm * norms[d])
				}
				acc[d] = 0
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
			b.add(term, cd.id)
		}
		// Evidence papers always belong to their context.
		for _, e := range c.EvidencePapers(term) {
			b.add(term, e)
		}
	}
	return b.finish()
}

// segProd is one segment of a representative's terms with its product.
type segProd struct {
	prod float64
	seg  int32
}

// segOrder is a worker's scratch for ordering one representative's
// segments: the products again as keys, and vector.SortByBits's scratch.
type segOrder struct {
	ents, pbuf  []segProd
	prods, kbuf []float64
	count       []int32
}

// of returns the index segments of rep's terms ascending by product
// r_t·w, valid until the next call; w is the segment's posting weight.
func (o *segOrder) of(ix *index.Index, rep corpus.Row) []segProd {
	o.ents, o.prods = o.ents[:0], o.prods[:0]
	for i, t := range rep.Terms {
		lo, hi := ix.Segments(t)
		for s := lo; s < hi; s++ {
			_, tf := ix.Segment(s)
			p := rep.Weights[i] * ix.Weight(t, tf)
			o.ents = append(o.ents, segProd{p, s})
			o.prods = append(o.prods, p)
		}
	}
	return o.sort()
}

// sort orders o.ents ascending by product, o.prods holding the same
// products, and returns them. The products are finite and positive, so
// vector.SortByBits orders them on their bit patterns, carrying each
// segment along; past its move budget the rest is left to slices.SortFunc.
func (o *segOrder) sort() []segProd {
	ents, prods := o.ents, o.prods
	n := len(ents)
	count := slices.Grow(o.count[:0], 2*n)[:2*n]
	clear(count)
	kbuf := slices.Grow(o.kbuf[:0], n)
	pbuf := slices.Grow(o.pbuf[:0], n)
	if !vector.SortByBits(prods, ents, count, kbuf[:n], pbuf[:n]) {
		slices.SortFunc(ents, func(x, y segProd) int { return cmp.Compare(x.prod, y.prod) })
	}
	o.pbuf, o.kbuf, o.count = pbuf, kbuf, count
	return ents
}

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
