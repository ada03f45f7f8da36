package contextset

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
		a := corpus.NewAnalyzerWorkers(c, 0)
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

// TestSegmentsRegroupPostings: every term's segments partition its posting
// run into runs of one weight each — the weight the analyzer's whole-text
// row gives the paper — weights strictly ascending, papers ascending within
// a segment, and the tables do not depend on the worker count.
func TestSegmentsRegroupPostings(t *testing.T) {
	_, a, ix := randomFixture(t, 7)
	want := newSegments(ix, 1)
	for _, workers := range []int{2, 3, 8} {
		if got := newSegments(ix, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: segment tables differ from workers=1", workers)
		}
	}
	for term := range ix.Terms() {
		docs, _ := ix.Postings(int32(term))
		weightOf := make(map[int32]float64, len(docs))
		for _, d := range docs {
			r := a.Row(d, corpus.WholeText)
			i, _ := slices.BinarySearch(r.Terms, int32(term))
			weightOf[int32(d)] = r.Weights[i]
		}
		seen := 0
		for s := want.first[term]; s < want.first[term+1]; s++ {
			if s > want.first[term] && !(want.w[s-1] < want.w[s]) {
				t.Fatalf("term %d: segment weights %v, %v not strictly ascending", term, want.w[s-1], want.w[s])
			}
			run := want.docs[want.start[s]:want.start[s+1]]
			if len(run) == 0 {
				t.Fatalf("term %d: empty segment %d", term, s)
			}
			for k, d := range run {
				if k > 0 && run[k-1] >= d {
					t.Fatalf("term %d segment %d: papers not ascending", term, s)
				}
				if w, ok := weightOf[d]; !ok || math.Float64bits(w) != math.Float64bits(want.w[s]) {
					t.Fatalf("term %d: paper %d in the segment of weight %v, posting weight %v (%v)", term, d, want.w[s], w, ok)
				}
			}
			seen += len(run)
		}
		if seen != len(docs) {
			t.Fatalf("term %d: segments hold %d papers, the run %d", term, seen, len(docs))
		}
	}
}

// TestSegOrderAscending: a representative's segments come out ascending by
// product and are exactly its terms' segments with r_t·w — on every
// representative of a generated corpus, and on two hand-built tables: one
// whose products all crowd one bucket in descending order (past the move
// budget, so the comparison sort finishes), and one of equal products.
func TestSegOrderAscending(t *testing.T) {
	o, a, ix := randomFixture(t, 7)
	sg := newSegments(ix, 0)
	var order segOrder
	cs := BuildTextBased(ix, o, Config{Workers: 1})
	for _, ctx := range cs.Contexts() {
		rep, _ := cs.Representative(ctx)
		checkSegOrder(t, &order, sg, a.Row(rep, corpus.WholeText))
	}

	const n = 300
	crowded := &segments{first: make([]int32, n+2), w: make([]float64, n+1)}
	tied := &segments{first: make([]int32, n+1), w: make([]float64, n)}
	rep := corpus.Row{Terms: make([]int32, n+1), Weights: make([]float64, n+1)}
	w := 1.0
	for i := range n + 1 {
		crowded.first[i+1] = int32(i + 1)
		rep.Terms[i], rep.Weights[i] = int32(i), 1
		crowded.w[n-i] = w // descending by term: every product moves
		w = math.Nextafter(w, 2)
		if i < n {
			tied.first[i+1] = int32(i + 1)
			tied.w[i] = 0.75
		}
	}
	crowded.w[0] = 1e300 // the outlier that puts the rest in one bucket
	checkSegOrder(t, &order, crowded, rep)
	rep.Terms, rep.Weights = rep.Terms[:n], rep.Weights[:n]
	checkSegOrder(t, &order, tied, rep)
}

// checkSegOrder fails unless order.of(sg, rep) is rep's segments ascending
// by product.
func checkSegOrder(t *testing.T, order *segOrder, sg *segments, rep corpus.Row) {
	t.Helper()
	want := map[int32]float64{}
	for i, term := range rep.Terms {
		for s := sg.first[term]; s < sg.first[term+1]; s++ {
			want[s] = rep.Weights[i] * sg.w[s]
		}
	}
	got := order.of(sg, rep)
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
			w, g := scoreOf(want, ctx, p), scoreOf(got, ctx, p)
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: score of paper %d in %s is %x, want %x", name, p, ctx, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}
