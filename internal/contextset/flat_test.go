package contextset

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// requireSameFrozen fails unless the two views hold equal arrays and maps.
func requireSameFrozen(t *testing.T, name string, want, got *Frozen) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: frozen views differ: %d vs %d contexts, %d vs %d members", name, len(want.Ctxs), len(got.Ctxs), len(want.Docs), len(got.Docs))
	}
}

// TestFinishLayoutHandSorted pins finish on a fixture small enough to sort by
// hand: contexts ascending, runs ascending by paper, a repeated add kept
// once, and each paper's contexts transposed from the runs. FromFrozen refuses the
// same arrays with one member made negative, out of order, repeated or at
// the paper count: the runs index per-paper scratch.
func TestFinishLayoutHandSorted(t *testing.T) {
	o := ontology.New()
	for _, id := range []ontology.TermID{"GO:1", "GO:2", "GO:3"} {
		if err := o.Add(ontology.Term{ID: id, Name: string(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	b := newBuilder(PatternBased, o, 7)
	b.add("GO:3", 5)
	b.add("GO:2", 4)
	b.add("GO:2", 1)
	b.add("GO:2", 1) // repeated adds,
	b.add("GO:2", 1) // one member
	b.add("GO:2", 0)
	b.add("GO:3", 2)
	b.add("GO:2", 3)
	b.decay["GO:3"] = 0.5
	b.inheritedFrom["GO:3"] = "GO:2"
	cs := b.finish()

	want := &Frozen{
		Kind:          PatternBased,
		Ctxs:          []ontology.TermID{"GO:2", "GO:3"},
		Offsets:       []int32{0, 4, 6},
		Docs:          []corpus.PaperID{0, 1, 3, 4, 2, 5},
		Papers:        7,
		Decay:         map[ontology.TermID]float64{"GO:3": 0.5},
		InheritedFrom: map[ontology.TermID]ontology.TermID{"GO:3": "GO:2"},
	}
	requireSameFrozen(t, "finish", want, cs.Freeze())
	if got := cs.Size("GO:2"); got != 4 {
		t.Fatalf("Size(GO:2) = %d, want 4", got)
	}
	if cs.Contains("GO:1", 0) || cs.Size("GO:1") != 0 || cs.PaperBitset("GO:1") != nil {
		t.Fatal("a context nothing was added to must be absent")
	}
	if !cs.Contains("GO:2", 4) || cs.Contains("GO:2", 2) || cs.Contains("GO:3", 6) {
		t.Fatal("Contains disagrees with the runs")
	}
	for p, want := range [][]ontology.TermID{{"GO:2"}, {"GO:2"}, {"GO:3"}, {"GO:2"}, {"GO:2"}, {"GO:3"}, nil, nil} {
		if got := cs.ContextsOf(corpus.PaperID(p)); !reflect.DeepEqual(got, want) {
			t.Fatalf("ContextsOf(%d) = %v, want %v", p, got, want)
		}
	}
	for k, d := range map[int]corpus.PaperID{0: -1, 1: 5, 2: 1, 5: 7} {
		f := *want
		f.Docs = slices.Clone(want.Docs)
		f.Docs[k] = d
		if _, err := FromFrozen(o, &f); err == nil {
			t.Fatalf("FromFrozen accepts member %d at %d of %v", d, k, f.Docs)
		}
	}
}

// TestFinishLayoutRoundTrips: whatever a builder produced must be a layout
// FromFrozen accepts (it validates what finish promises: ascending contexts,
// spanning offsets, runs ascending below the paper count) and binds to the
// same arrays, and ContextsOf lists exactly the contexts whose runs hold a
// paper — per builder, over three corpora.
func TestFinishLayoutRoundTrips(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		o, err := ontology.Generate(ontology.GenConfig{Seed: seed, NumTerms: 40, MaxDepth: 6, SecondParentProb: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		gen := corpus.DefaultGenConfig(120)
		gen.Seed = seed
		c, err := corpus.Generate(o, gen)
		if err != nil {
			t.Fatal(err)
		}
		a := corpus.NewAnalyzerWorkers(c, 0)
		for name, built := range map[string]*ContextSet{
			"text":     BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0),
			"pattern":  BuildPatternBased(pattern.NewMemo(pattern.NewPosIndex(a), o), o, 0),
			"gopubmed": BuildGoPubMedStyle(a, o, 0.5),
		} {
			name = fmt.Sprintf("seed %d %s", seed, name)
			f := built.Freeze()
			if len(f.Ctxs) == 0 {
				t.Fatalf("%s: empty set", name)
			}
			bound, err := FromFrozen(o, f)
			if err != nil {
				t.Fatalf("%s: FromFrozen rejects what finish built: %v", name, err)
			}
			requireSameFrozen(t, name, f, bound.Freeze())
			if f.Papers != c.Len() {
				t.Fatalf("%s: set over %d papers, corpus has %d", name, f.Papers, c.Len())
			}
			of := make([][]ontology.TermID, c.Len())
			for i, ctx := range f.Ctxs {
				docs := f.Docs[f.Offsets[i]:f.Offsets[i+1]]
				for k, d := range docs {
					if k > 0 && docs[k-1] >= d {
						t.Fatalf("%s: run of %s not strictly ascending at %d", name, ctx, k)
					}
					of[d] = append(of[d], ctx)
				}
				if len(docs) == 0 {
					t.Fatalf("%s: %s has no papers", name, ctx)
				}
				if !reflect.DeepEqual(bound.Papers(ctx), built.Papers(ctx)) || bound.Size(ctx) != len(docs) {
					t.Fatalf("%s: accessors disagree on %s", name, ctx)
				}
			}
			for p, want := range of {
				for _, cs := range []*ContextSet{built, bound} {
					if got := cs.ContextsOf(corpus.PaperID(p)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: ContextsOf(%d) = %v, want %v", name, p, got, want)
					}
				}
			}
		}
	}
}

// TestBuiltSetConcurrentReads reads membership and the paper → context
// transpose of a freshly built (not state-loaded) set from 8 goroutines, as
// a first-boot server's request goroutines do with no lock; run under -race.
func TestBuiltSetConcurrentReads(t *testing.T) {
	o, c, a, _ := fixture(t)
	cs := BuildTextBased(must(index.BuildWorkers(a, 0)), o, 0)
	ctxs := cs.Contexts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ctxs {
				ctx := ctxs[(k+g)%len(ctxs)]
				n := 0
				for p := 0; p < c.Len(); p++ {
					in := cs.Contains(ctx, corpus.PaperID(p))
					if in != slices.Contains(cs.ContextsOf(corpus.PaperID(p)), ctx) {
						t.Errorf("%s: Contains and ContextsOf disagree on paper %d", ctx, p)
						return
					}
					if in {
						n++
					}
				}
				if n != cs.Size(ctx) {
					t.Errorf("%s: %d papers are members, set size %d", ctx, n, cs.Size(ctx))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
