package contextset

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
)

// TestBuildTextBasedMatchesReference is the exactness battery of the
// postings-driven builder: over several corpora, Representative must choose
// the map-form reference's representative for every evidence term and
// decline a term without evidence, and under every combination of the knobs
// that shape membership the builder must choose the reference's members at
// any worker count. Threshold 0 admits papers that share no term with the
// representative; 0.9 leaves little but the top-M lists.
func TestBuildTextBasedMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 5, 23} {
		o, err := ontology.Generate(ontology.GenConfig{Seed: seed, NumTerms: 30, MaxDepth: 5, SecondParentProb: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		gen := corpus.DefaultGenConfig(90)
		gen.Seed = seed
		c, err := corpus.Generate(o, gen)
		if err != nil {
			t.Fatal(err)
		}
		a := corpus.NewAnalyzerWorkers(c, 0)
		vecs := referenceVectors(a)
		for _, term := range o.TermIDs() {
			evidence := c.EvidencePapers(term)
			got, ok := Representative(a, term)
			if ok != (len(evidence) > 0) {
				t.Fatalf("seed %d: Representative(%s) ok = %v with %d evidence papers", seed, term, ok, len(evidence))
			}
			if !ok {
				continue
			}
			if want := chooseRepresentativeReference(vecs, evidence); got != want {
				t.Fatalf("seed %d: Representative(%s) = %d, reference %d", seed, term, got, want)
			}
		}
		ix := must(index.BuildWorkers(a, 0))
		for _, threshold := range []float64{0, DefaultConfig().TextThreshold, 0.9} {
			for _, top := range []int{0, 1, 3} {
				for _, maxPer := range []int{0, 5} {
					cfg := Config{TextThreshold: threshold, TopContextsPerPaper: top, MaxPerContext: maxPer, Workers: 1}
					want := buildTextBasedReference(a, o, cfg)
					for _, workers := range []int{1, 2, 8} {
						cfg.Workers = workers
						name := fmt.Sprintf("seed=%d threshold=%v top=%d max=%d workers=%d", seed, threshold, top, maxPer, workers)
						requireSameSet(t, name, want, BuildTextBased(ix, o, cfg))
					}
				}
			}
		}
	}
}

// TestSegOrderAscending: a representative's segments come out ascending by
// product and are exactly its terms' index segments with r_t·w — on every
// representative of a generated corpus — and sort orders two hand-built
// lists: one whose products all crowd one bucket in descending order (past
// the move budget, so the comparison sort finishes), and one of equal
// products.
func TestSegOrderAscending(t *testing.T) {
	o, a, ix := randomFixture(t, 7)
	var order segOrder
	cs := BuildTextBased(ix, o, Config{Workers: 1})
	for _, ctx := range cs.Contexts() {
		rep, _ := Representative(a, ctx)
		r := a.Row(rep, corpus.WholeText)
		want := map[int32]float64{}
		for i, term := range r.Terms {
			lo, hi := ix.Segments(term)
			for s := lo; s < hi; s++ {
				_, tf := ix.Segment(s)
				want[s] = r.Weights[i] * ix.Weight(term, tf)
			}
		}
		checkSegOrder(t, order.of(ix, r), want)
	}

	const n = 300
	crowded, tied := make([]segProd, n+1), make([]segProd, n)
	p := 1.0
	for i := range n + 1 {
		crowded[n-i] = segProd{p, int32(n - i)} // descending: every product moves
		p = math.Nextafter(p, 2)
		if i < n {
			tied[i] = segProd{0.75, int32(i)}
		}
	}
	crowded[0].prod = 1e300 // the outlier that puts the rest in one bucket
	for _, ents := range [][]segProd{crowded, tied} {
		want := map[int32]float64{}
		order.ents, order.prods = order.ents[:0], order.prods[:0]
		for _, e := range ents {
			want[e.seg] = e.prod
			order.ents = append(order.ents, e)
			order.prods = append(order.prods, e.prod)
		}
		checkSegOrder(t, order.sort(), want)
	}
}

// checkSegOrder fails unless got is the segments of want, each with its
// product, ascending by product.
func checkSegOrder(t *testing.T, got []segProd, want map[int32]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d segments ordered, want %d", len(got), len(want))
	}
	for k, e := range got {
		if p, ok := want[e.seg]; !ok || math.Float64bits(p) != math.Float64bits(e.prod) {
			t.Fatalf("segment %d with product %v, want %v (%v)", e.seg, e.prod, p, ok)
		}
		delete(want, e.seg)
		if k > 0 && got[k-1].prod > e.prod {
			t.Fatalf("products %v, %v out of order at %d", got[k-1].prod, e.prod, k)
		}
	}
}

// randomFixture is a corpus of TestBuildTextBasedMatchesReference's shape:
// 90 generated papers over a 30-term ontology.
func randomFixture(t *testing.T, seed int64) (*ontology.Ontology, *corpus.Analyzer, *index.Index) {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: seed, NumTerms: 30, MaxDepth: 5, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.DefaultGenConfig(90)
	gen.Seed = seed
	c, err := corpus.Generate(o, gen)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return o, a, must(index.BuildWorkers(a, 0))
}

// tieFixture is what random corpora never produce: four contexts whose
// representatives (papers 0-3) have identical text, so every paper's
// similarities to them tie exactly, and two papers (4, 5) that share a few
// words with them.
func tieFixture(t *testing.T) (*ontology.Ontology, *corpus.Analyzer, *index.Index) {
	t.Helper()
	o := ontology.New()
	_ = o.Add(ontology.Term{ID: "GO:1", Name: "root"})
	var papers []*corpus.Paper
	for i, id := range []ontology.TermID{"GO:2", "GO:3", "GO:4", "GO:5"} {
		_ = o.Add(ontology.Term{ID: id, Name: "ctx", Parents: []ontology.TermID{"GO:1"}})
		papers = append(papers, &corpus.Paper{
			ID: corpus.PaperID(i), Title: "kinase signalling", Abstract: "kinase cascade regulates transcription",
			Body: "membrane receptor kinase", Authors: []string{"x"}, Topics: []ontology.TermID{id}, Evidence: true,
		})
	}
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	papers = append(papers,
		&corpus.Paper{ID: 4, Title: "receptor study", Abstract: "kinase receptor binding", Body: "unrelated genome assembly", Authors: []string{"y"}},
		&corpus.Paper{ID: 5, Title: "genome assembly", Abstract: "sequencing reads", Body: "transcription of one kinase", Authors: []string{"z"}},
	)
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return o, a, must(index.BuildWorkers(a, 0))
}

// TestBuildTextBasedBreaksTiesLikeReference: the top-M merge must fall back
// on term order — within one worker's list and across workers' lists.
func TestBuildTextBasedBreaksTiesLikeReference(t *testing.T) {
	o, a, ix := tieFixture(t)
	for _, top := range []int{1, 2, 3} {
		cfg := Config{TextThreshold: 0.99, TopContextsPerPaper: top, Workers: 1}
		want := buildTextBasedReference(a, o, cfg)
		if want.Contains("GO:5", 4) || !want.Contains("GO:2", 4) {
			t.Fatalf("top=%d: fixture does not tie: paper 4 should join the lowest terms only", top)
		}
		for _, workers := range []int{1, 2, 4} {
			cfg.Workers = workers
			requireSameSet(t, fmt.Sprintf("top=%d workers=%d", top, workers), want, BuildTextBased(ix, o, cfg))
		}
	}
}

// requireSameSet fails unless got has want's contexts and members.
func requireSameSet(t *testing.T, name string, want, got *ContextSet) {
	t.Helper()
	if !reflect.DeepEqual(want.Contexts(), got.Contexts()) {
		t.Fatalf("%s: context lists differ", name)
	}
	for _, ctx := range want.Contexts() {
		if !reflect.DeepEqual(want.Papers(ctx), got.Papers(ctx)) {
			t.Fatalf("%s: members of %s differ", name, ctx)
		}
	}
}
