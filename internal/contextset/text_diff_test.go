package contextset

import (
	"fmt"
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
		for _, threshold := range []float64{0, textThreshold, 0.9} {
			for _, top := range []int{0, 1, topContextsPerPaper, 3} {
				want := buildTextBasedReference(a, o, threshold, top)
				for _, workers := range []int{1, 2, 8} {
					name := fmt.Sprintf("seed=%d threshold=%v top=%d workers=%d", seed, threshold, top, workers)
					requireSameSet(t, name, want, buildTextBased(ix, o, threshold, top, workers))
				}
			}
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
		want := buildTextBasedReference(a, o, 0.99, top)
		if want.Contains("GO:5", 4) || !want.Contains("GO:2", 4) {
			t.Fatalf("top=%d: fixture does not tie: paper 4 should join the lowest terms only", top)
		}
		for _, workers := range []int{1, 2, 4} {
			requireSameSet(t, fmt.Sprintf("top=%d workers=%d", top, workers), want, buildTextBased(ix, o, 0.99, top, workers))
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
