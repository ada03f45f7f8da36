package prestige

import (
	"math"
	"slices"
	"testing"

	"ctxsearch/internal/citegraph"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
	"ctxsearch/internal/vector"
)

// textReference is the definition the TextScorer is held to: §3.2 evaluated
// pair by pair on string-keyed section vectors and author sets and on
// citegraph's pairwise similarities, the way the scorer computed it before
// it bound a representative once per context. The vectors are rebuilt from
// the tokenizer alone — vector.FromTerms weighted by the analyzer's DF
// table — so the analyzer's rows are checked, not trusted.
type textReference struct {
	g        *citegraph.Graph
	coAuthor map[string][]corpus.PaperID
	authors  []map[string]bool
	vecs     [][corpus.NumSections]vector.Sparse
}

func newTextReference(a *corpus.Analyzer) *textReference {
	c := a.Corpus()
	r := &textReference{g: GraphFromCorpus(c), coAuthor: c.CoAuthorIndex()}
	r.authors = authorSets(c)
	r.vecs = make([][corpus.NumSections]vector.Sparse, c.Len())
	for i, p := range c.Papers() {
		for _, sec := range corpus.Sections {
			r.vecs[i][sec] = a.DF().Weight(vector.FromTerms(a.Tokenizer().Terms(p.SectionText(sec))))
		}
	}
	return r
}

// authorSets returns each paper's normalised author set, read off the
// co-author index.
func authorSets(c *corpus.Corpus) []map[string]bool {
	sets := make([]map[string]bool, c.Len())
	for i := range sets {
		sets[i] = map[string]bool{}
	}
	for au, papers := range c.CoAuthorIndex() {
		for _, p := range papers {
			sets[p][au] = true
		}
	}
	return sets
}

func similarityReference(r *textReference, p, rep corpus.PaperID) float64 {
	if p == rep {
		return 1
	}
	return float64(titleWeight*r.sectionSim(p, rep, corpus.SecTitle)) +
		float64(abstractWeight*r.sectionSim(p, rep, corpus.SecAbstract)) +
		float64(bodyWeight*r.sectionSim(p, rep, corpus.SecBody)) +
		float64(indexTermsWeight*r.sectionSim(p, rep, corpus.SecIndexTerms)) +
		float64(authorsWeight*r.authorSim(p, rep)) +
		float64(referencesWeight*r.referenceSim(p, rep))
}

func (r *textReference) sectionSim(p, q corpus.PaperID, sec corpus.Section) float64 {
	return vector.Cosine(r.vecs[p][sec], r.vecs[q][sec])
}

func (r *textReference) authorSim(p, q corpus.PaperID) float64 {
	ap, aq := r.authors[p], r.authors[q]
	l0 := authorJaccard(ap, aq)
	l1 := levelOneOverlap(r.authors, r.coAuthor, p, q, ap, aq)
	return float64(level0Weight*l0) + float64(level1Weight*l1)
}

func authorJaccard(a, b map[string]bool) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	inter := 0
	for x := range small {
		if large[x] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// levelOneOverlap counts third papers co-authored by an author of p and an
// author of q, saturating at 3 such bridges.
func levelOneOverlap(authors []map[string]bool, coAuthor map[string][]corpus.PaperID, p, q corpus.PaperID, ap, aq map[string]bool) float64 {
	bridge := make(map[corpus.PaperID]bool) // papers (other than p, q) with an author from p
	for au := range ap {
		for _, z := range coAuthor[au] {
			if z != p && z != q {
				bridge[z] = true
			}
		}
	}
	n := 0
	for z := range bridge {
		az := authors[z]
		for au := range aq {
			if az[au] {
				n++
				break
			}
		}
		if n >= 3 {
			break
		}
	}
	return float64(n) / 3
}

// levelOneOverlap on the scorer is the reference's, for the component test
// in prestige_test.go.
func (s *TextScorer) levelOneOverlap(p, q corpus.PaperID, ap, aq map[string]bool) float64 {
	c := s.analyzer.Corpus()
	return levelOneOverlap(authorSets(c), c.CoAuthorIndex(), p, q, ap, aq)
}

func (r *textReference) referenceSim(p, q corpus.PaperID) float64 {
	bib := r.g.BibliographicCoupling(int(p), int(q))
	coc := r.g.CoCitation(int(p), int(q))
	return float64(bibWeight*bib) + float64((1-bibWeight)*coc)
}

// TestTextScorerMatchesReference compares every (context, paper) score of
// the bound-representative scorer with the pairwise definition, bit for
// bit, on generated corpora: both context sets, each context's
// representative chosen from its term's evidence, and Score serially, with
// workers sharing the tables, and with more workers than CPUs.
func TestTextScorerMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		o, err := ontology.Generate(ontology.GenConfig{Seed: seed, NumTerms: 50, MaxDepth: 6, SecondParentProb: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		gen := corpus.DefaultGenConfig(160)
		gen.Seed = seed
		c, err := corpus.Generate(o, gen)
		if err != nil {
			t.Fatal(err)
		}
		a := corpus.NewAnalyzerWorkers(c, 0)
		text := contextset.BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0)
		pat := contextset.BuildPatternBased(pattern.NewMemo(pattern.NewPosIndex(a), o), o, 0)
		ref := newTextReference(a)
		sc := NewTextScorer(a)
		for _, tc := range []struct {
			name string
			cs   *contextset.ContextSet
		}{
			{"text", text},
			{"pattern", pat},
		} {
			want := make(map[ontology.TermID]map[corpus.PaperID]uint64)
			pairs := 0
			for _, ctx := range tc.cs.Contexts() {
				rep, ok := contextset.Representative(a, ctx)
				if !ok {
					continue
				}
				m := make(map[corpus.PaperID]uint64)
				d := tc.cs.Decay(ctx)
				for _, p := range tc.cs.Papers(ctx) {
					v := similarityReference(ref, p, rep)
					if d != 1 {
						v *= d
					}
					m[p] = math.Float64bits(v)
					pairs++
				}
				want[ctx] = m
			}
			if pairs == 0 {
				t.Fatalf("seed %d %s: the reference scored no pair", seed, tc.name)
			}
			for _, workers := range []int{1, 2, 8} {
				got := Score(sc, tc.cs, 0, workers)
				if got.NumContexts() != len(want) {
					t.Fatalf("seed %d %s workers %d: %d contexts scored, reference %d", seed, tc.name, workers, got.NumContexts(), len(want))
				}
				for ctx, wm := range want {
					gr := got.Run(ctx)
					if len(gr.Docs) != len(wm) {
						t.Fatalf("seed %d %s workers %d: context %s has %d scores, reference %d", seed, tc.name, workers, ctx, len(gr.Docs), len(wm))
					}
					for p, bits := range wm {
						if g := math.Float64bits(gr.Get(p)); g != bits {
							t.Fatalf("seed %d %s workers %d: context %s paper %d = %v, reference %v",
								seed, tc.name, workers, ctx, p, gr.Get(p), math.Float64frombits(bits))
						}
					}
				}
			}
		}
	}
}

// TestTextScorerMatchesReferenceOnEdges runs every ordered pair of a
// hand-built corpus through one scorer — so each call leases the scratch the
// last one released, and a dense entry or a mark left behind by an earlier
// representative would show — and compares Similarity and its author and
// reference parts with the pairwise definition. The corpus holds the cases
// generated ones rarely do: no authors, no citations either way, an empty
// section on one side or both, and exactly 2, 3 and 5 bridging papers, some
// reached through two of a paper's authors.
func TestTextScorerMatchesReferenceOnEdges(t *testing.T) {
	papers := []*corpus.Paper{
		// 0: the hub representative — shares r1 with every bridge.
		{Title: "zinc finger binding", Abstract: "zinc finger protein binding study", Body: "binding assay of zinc finger domains", IndexTerms: []string{"zinc", "binding"}, Authors: []string{"R One"}, References: []corpus.PaperID{1, 2}},
		// 1–3: reach 2, 3 and 5 bridges; 1 reaches both of its two through
		// either of its authors, so counting reaches instead of papers says 3.
		{Title: "zinc transport", Abstract: "finger study of transport", Body: "transport assay", IndexTerms: []string{"zinc"}, Authors: []string{"P Two", "P Twob"}},
		{Title: "protein binding kinetics", Abstract: "binding kinetics", Body: "", IndexTerms: nil, Authors: []string{"P Three"}, References: []corpus.PaperID{1}},
		{Title: "finger domains", Abstract: "domains of zinc finger", Body: "assay assay domains", IndexTerms: []string{"domains"}, Authors: []string{"P Five", "P Fiveb"}, References: []corpus.PaperID{1, 2}},
		// 4–5: the two bridges of paper 1.
		{Title: "bridge a", Abstract: "misc", Body: "misc", Authors: []string{"p two", "P Twob", "r one"}},
		{Title: "bridge b", Abstract: "misc", Body: "misc", Authors: []string{"P Two", "p twob", "R One"}},
		// 6–8: the three bridges of paper 2.
		{Title: "bridge c", Abstract: "misc", Body: "misc", Authors: []string{"P Three", "R One"}},
		{Title: "bridge d", Abstract: "misc", Body: "misc", Authors: []string{"P Three", "R One"}, References: []corpus.PaperID{0, 2}},
		{Title: "bridge e", Abstract: "misc", Body: "misc", Authors: []string{"P Three", "R One"}, References: []corpus.PaperID{0, 3}},
		// 9–13: the five bridges of paper 3.
		{Title: "bridge f", Abstract: "misc", Body: "misc", Authors: []string{"P Five", "R One"}},
		{Title: "bridge g", Abstract: "misc", Body: "misc", Authors: []string{"P Fiveb", "R One"}},
		{Title: "bridge h", Abstract: "misc", Body: "misc", Authors: []string{"P Five", "P Fiveb", "R One"}},
		{Title: "bridge i", Abstract: "misc", Body: "misc", Authors: []string{"P Five", "R One"}, References: []corpus.PaperID{3, 2}},
		{Title: "bridge j", Abstract: "misc", Body: "misc", Authors: []string{"P Five", "R One"}},
		// 14: no authors, no text but a title. 15: cites nothing and is cited
		// by nothing, shares terms with 0 and an author with nobody.
		{Title: "zinc", Authors: nil, References: []corpus.PaperID{0, 1, 2}},
		{Title: "zinc finger binding", Abstract: "zinc finger protein", Body: "binding of zinc", IndexTerms: []string{"zinc", "finger"}, Authors: []string{"Lone Wolf"}},
	}
	for i, p := range papers {
		p.ID = corpus.PaperID(i)
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	ref := newTextReference(a)
	s := NewTextScorer(a)

	// The fixture holds what its comment says it holds.
	for p, want := range map[corpus.PaperID]float64{1: 2.0 / 3, 2: 1, 3: 1, 14: 0, 15: 0} {
		if got := levelOneOverlap(ref.authors, ref.coAuthor, p, 0, ref.authors[p], ref.authors[0]); got != want {
			t.Fatalf("reference level-1 overlap of paper %d with the hub = %v, want %v", p, got, want)
		}
	}
	if n := a.Row(2, corpus.SecBody).Norm; n != 0 {
		t.Fatalf("paper 2's empty body has norm %v", n)
	}

	same := func(what string, p, rep corpus.PaperID, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s(%d, %d) = %v, reference %v", what, p, rep, got, want)
		}
	}
	for rep := range papers {
		rep := corpus.PaperID(rep)
		b := s.bind(rep)
		for p := range papers {
			p := corpus.PaperID(p)
			same("similarity", p, rep, b.similarity(p), similarityReference(ref, p, rep))
			same("authorSim", p, rep, b.authorSim(p), ref.authorSim(p, rep))
			same("referenceSim", p, rep, b.referenceSim(p), ref.referenceSim(p, rep))
		}
		b.release()
	}
	// A released scratch is blank whatever it was bound to.
	b := s.bind(0)
	b.release()
	for sec := range b.dense {
		if slices.ContainsFunc(b.dense[sec], func(w float64) bool { return w != 0 }) {
			t.Fatalf("released scratch keeps weights in section %d: %v", sec, b.dense[sec])
		}
	}
	if slices.Contains(b.repAuthor, true) || slices.ContainsFunc(b.marks, func(m uint8) bool { return m != 0 }) {
		t.Fatalf("released scratch keeps authors %v or marks %v", b.repAuthor, b.marks)
	}
}
