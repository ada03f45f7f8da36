package prestige

import (
	"math"
	"slices"
	"sync"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/vector"
)

// The weights of the §3.2 text-based score Sim(PX, PC) = Σ weightᵢ ·
// Simᵢ(PX, PC) over the four sections, the authors and the references
// (they sum to 1); the weights of the two author-overlap levels; and the
// share of bibliographic coupling in SimReferences, co-citation having the
// rest.
const (
	titleWeight      = 0.15
	abstractWeight   = 0.20
	bodyWeight       = 0.20
	indexTermsWeight = 0.10
	authorsWeight    = 0.15
	referencesWeight = 0.20
	level0Weight     = 0.7
	level1Weight     = 0.3
	bibWeight        = 0.5
)

// TextScorer implements the text-based prestige function of §3.2: a paper's
// prestige in a context is its weighted similarity to the context's
// representative paper across title, abstract, body, index terms, authors
// (level-0 and level-1 overlap) and references (bibliographic coupling +
// co-citation).
//
// A context compares one representative against many papers, so the scorer
// works bind → score each paper → release on the analyzer's term-ID rows
// and ID-keyed author and citation tables (textTables) instead of pair by
// pair on string-keyed maps. The arithmetic — which
// products are formed, the order they are summed in, every division and
// every zero case — is that of vector.CosineWithNorms, the author-set
// Jaccard and bridge count, and citegraph's coupling and co-citation, bit
// for bit; similarityReference in the tests is that pairwise form.
type TextScorer struct {
	analyzer *corpus.Analyzer
	// tables is built by the first call that scores.
	tables textTables
}

// NewTextScorer returns the scorer. Its tables — the author index in both
// directions and the citation graph — are built by the first call that
// scores.
func NewTextScorer(a *corpus.Analyzer) *TextScorer {
	return &TextScorer{analyzer: a}
}

// Name implements Scorer.
func (s *TextScorer) Name() string { return "text" }

// ScoreContext implements Scorer. The representative is
// contextset.Representative of ctx, whichever set is scored: the paper's §4
// scores the pattern-based set with the text-based set's representatives,
// and those are functions of the evidence alone. A context without evidence
// papers has none and is declined (the paper assigns text scores only where
// representatives exist).
func (s *TextScorer) ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool {
	rep, ok := contextset.Representative(s.analyzer, ctx)
	if !ok {
		return false
	}
	b := s.bind(rep)
	for i, p := range cs.Papers(ctx) {
		vals[i] = b.similarity(p)
	}
	b.release()
	// No per-context max-normalisation: the weighted similarity is already
	// in [0,1] (the weights sum to 1), and the paper's separability
	// analysis depends on the raw distribution — upper-level contexts whose
	// representatives characterise them poorly produce small clustered
	// scores, which is exactly the Figure 5.5 effect.
	return true
}

// textTables holds what the text score compares beside the analyzer's
// section rows, keyed by dense IDs: the author index in both directions and
// the citation graph. Immutable once built.
type textTables struct {
	once     sync.Once
	analyzer *corpus.Analyzer
	graph    *citegraph.Graph

	paperAuthors [][]int32          // paper → its authors' IDs
	authorPapers [][]corpus.PaperID // author → the papers they appear on

	// scratch recycles *boundRep: a context binds once, and each of
	// Score's workers leases its own.
	scratch sync.Pool
}

func (t *textTables) build(a *corpus.Analyzer) {
	c := a.Corpus()
	t.analyzer = a
	t.graph = GraphFromCorpus(c)
	// Author IDs follow map order: nothing depends on which author got which
	// ID, only on who shares one.
	t.paperAuthors = make([][]int32, c.Len())
	for _, papers := range c.CoAuthorIndex() {
		au := int32(len(t.authorPapers))
		for _, p := range papers {
			t.paperAuthors[p] = append(t.paperAuthors[p], au)
		}
		t.authorPapers = append(t.authorPapers, papers)
	}
}

// Marks bind leaves on the papers around the representative.
const (
	markCoAuthor uint8 = 1 << iota // shares an author with the representative
	markCited                      // the representative cites it
	markCiting                     // it cites the representative
)

// boundRep is a representative laid out for comparison against many papers,
// and the pooled scratch that layout lives in. bind fills it in
// O(representative): the section vectors scattered by term ID, the authors
// flagged, the papers sharing an author and the citation neighbours marked.
// release walks the same lists to blank them, so one at rest in the pool is
// all zeros whatever it was bound to.
type boundRep struct {
	t   *textTables
	rep corpus.PaperID

	// dense[s][term] is the representative's weight of term in section s, 0
	// where it has none (a TF-IDF weight is positive).
	dense     [corpus.NumSections][]float64
	norms     [corpus.NumSections]float64
	repAuthor []bool  // by author ID
	marks     []uint8 // by paper
	prods     []float64
}

func (s *TextScorer) bind(rep corpus.PaperID) *boundRep {
	t := &s.tables
	t.once.Do(func() { t.build(s.analyzer) })
	b, _ := t.scratch.Get().(*boundRep)
	if b == nil {
		b = &boundRep{
			t:         t,
			repAuthor: make([]bool, len(t.authorPapers)),
			marks:     make([]uint8, len(t.paperAuthors)),
		}
		for sec := range b.dense {
			b.dense[sec] = make([]float64, len(s.analyzer.DF().Terms()))
		}
	}
	b.rep = rep
	for _, sec := range corpus.Sections {
		r := t.analyzer.Row(rep, sec)
		for i, id := range r.Terms {
			b.dense[sec][id] = r.Weights[i]
		}
		b.norms[sec] = r.Norm
	}
	for _, au := range t.paperAuthors[rep] {
		b.repAuthor[au] = true
		for _, z := range t.authorPapers[au] {
			b.marks[z] |= markCoAuthor
		}
	}
	for _, z := range t.graph.Out(int(rep)) {
		b.marks[z] |= markCited
	}
	for _, z := range t.graph.In(int(rep)) {
		b.marks[z] |= markCiting
	}
	return b
}

// release blanks what bind wrote and returns the scratch to the pool.
func (b *boundRep) release() {
	t := b.t
	for _, sec := range corpus.Sections {
		for _, id := range t.analyzer.Row(b.rep, sec).Terms {
			b.dense[sec][id] = 0
		}
	}
	for _, au := range t.paperAuthors[b.rep] {
		b.repAuthor[au] = false
		for _, z := range t.authorPapers[au] {
			b.marks[z] = 0
		}
	}
	for _, z := range t.graph.Out(int(b.rep)) {
		b.marks[z] = 0
	}
	for _, z := range t.graph.In(int(b.rep)) {
		b.marks[z] = 0
	}
	t.scratch.Put(b)
}

// similarity computes the §3.2 weighted similarity of p to the bound
// representative.
func (b *boundRep) similarity(p corpus.PaperID) float64 {
	if p == b.rep {
		// The representative characterises the context by definition.
		return 1
	}
	return float64(titleWeight*b.sectionSim(p, corpus.SecTitle)) +
		float64(abstractWeight*b.sectionSim(p, corpus.SecAbstract)) +
		float64(bodyWeight*b.sectionSim(p, corpus.SecBody)) +
		float64(indexTermsWeight*b.sectionSim(p, corpus.SecIndexTerms)) +
		float64(authorsWeight*b.authorSim(p)) +
		float64(referencesWeight*b.referenceSim(p))
}

// sectionSim is vector.CosineWithNorms(p's vector, the representative's,
// ‖p‖, ‖rep‖): the products of the shared terms — p's weight times the
// dense entry, and multiplication commutes — reduced by the SumSorted that
// Sparse.Dot reduces them by, over the same product of norms, with the same
// zero for an empty side.
func (b *boundRep) sectionSim(p corpus.PaperID, sec corpus.Section) float64 {
	r := b.t.analyzer.Row(p, sec)
	if r.Norm == 0 || b.norms[sec] == 0 {
		return 0
	}
	dense := b.dense[sec]
	prods := b.prods[:0]
	for i, id := range r.Terms {
		if d := dense[id]; d != 0 {
			prods = append(prods, r.Weights[i]*d)
		}
	}
	b.prods = prods
	return vector.SumSorted(prods) / (r.Norm * b.norms[sec])
}

// authorSim combines Level-0 overlap with the bound representative (shared
// authors, Jaccard) with Level-1 overlap (each paper's authors co-write a
// third paper), per [7].
func (b *boundRep) authorSim(p corpus.PaperID) float64 {
	return float64(level0Weight*b.authorJaccard(p)) + float64(level1Weight*b.levelOneOverlap(p))
}

// authorJaccard is |A(p) ∩ A(rep)| / |A(p) ∪ A(rep)| over the author sets,
// 0 when either is empty.
func (b *boundRep) authorJaccard(p corpus.PaperID) float64 {
	ap, ar := b.t.paperAuthors[p], b.t.paperAuthors[b.rep]
	if len(ap) == 0 || len(ar) == 0 {
		return 0
	}
	inter := 0
	for _, au := range ap {
		if b.repAuthor[au] {
			inter++
		}
	}
	return float64(inter) / float64(len(ap)+len(ar)-inter)
}

// levelOneOverlap counts third papers co-authored by an author of p and an
// author of the representative, saturating at 3 such bridges: the distinct
// papers other than the two, reached through p's authors, that carry the
// co-author mark.
func (b *boundRep) levelOneOverlap(p corpus.PaperID) float64 {
	var bridges [3]corpus.PaperID
	n := 0
count:
	for _, au := range b.t.paperAuthors[p] {
		for _, z := range b.t.authorPapers[au] {
			if b.marks[z]&markCoAuthor == 0 || z == p || z == b.rep {
				continue
			}
			if slices.Contains(bridges[:n], z) {
				continue // reached before, through another of p's authors
			}
			bridges[n] = z
			if n++; n == len(bridges) {
				break count
			}
		}
	}
	return float64(n) / 3
}

// referenceSim combines bibliographic coupling with co-citation against the
// bound representative, per [7]:
// SimReferences = BibWeight·Simbib + (1−BibWeight)·Simcoc.
func (b *boundRep) referenceSim(p corpus.PaperID) float64 {
	bib, coc := 1.0, 1.0 // citegraph's value for a node against itself
	if p != b.rep {
		g := b.t.graph
		bib = b.coupling(g.Out(int(p)), markCited, len(g.Out(int(b.rep))))
		coc = b.coupling(g.In(int(p)), markCiting, len(g.In(int(b.rep))))
	}
	return float64(bibWeight*bib) + float64((1-bibWeight)*coc)
}

// coupling is citegraph's cosine-normalised overlap of two adjacency lists,
// |a ∩ b| / √(|a|·|b|) and 0 when either is empty, with the
// representative's list of repLen entries present as mark: an adjacency
// list holds no node twice, so counting the marked entries of the other is
// the size of the intersection.
func (b *boundRep) coupling(adj []int32, mark uint8, repLen int) float64 {
	if len(adj) == 0 || repLen == 0 {
		return 0
	}
	shared := 0
	for _, z := range adj {
		if b.marks[z]&mark != 0 {
			shared++
		}
	}
	return float64(shared) / math.Sqrt(float64(len(adj))*float64(repLen))
}
