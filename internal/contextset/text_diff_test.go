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
// postings-driven builder: over several corpora and every combination of
// the knobs that shape membership, it must choose the reference's
// representatives and members and reproduce every assignment score bit for
// bit, at any worker count. Threshold 0 admits papers that share no term
// with the representative; 0.9 leaves little but the top-M lists.
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
		a := corpus.NewAnalyzer(c)
		ix := index.Build(a)
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

// TestBuildTextBasedBreaksTiesLikeReference covers what random corpora never
// produce: contexts whose representatives have identical text, so a paper's
// similarities to them tie exactly and the top-M merge must fall back on
// term order — within one worker's list and across workers' lists.
func TestBuildTextBasedBreaksTiesLikeReference(t *testing.T) {
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
	a := corpus.NewAnalyzer(c)
	ix := index.Build(a)
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

// requireSameSet fails unless got has want's representatives, contexts,
// members and score bits.
func requireSameSet(t *testing.T, name string, want, got *ContextSet) {
	t.Helper()
	if !reflect.DeepEqual(want.reps, got.reps) {
		t.Fatalf("%s: representatives differ", name)
	}
	if !reflect.DeepEqual(want.Contexts(), got.Contexts()) {
		t.Fatalf("%s: context lists differ", name)
	}
	for _, ctx := range want.Contexts() {
		papers := want.Papers(ctx)
		if !reflect.DeepEqual(papers, got.Papers(ctx)) {
			t.Fatalf("%s: members of %s differ", name, ctx)
		}
		for _, p := range papers {
			w, g := want.AssignScore(ctx, p), got.AssignScore(ctx, p)
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: score of paper %d in %s is %x, want %x", name, p, ctx, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}
