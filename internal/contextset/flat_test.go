package contextset

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// requireSameFrozen fails unless the two views hold equal arrays and maps,
// scores compared by bits.
func requireSameFrozen(t *testing.T, name string, want, got *Frozen) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: frozen views differ: %d vs %d contexts, %d vs %d members", name, len(want.Ctxs), len(got.Ctxs), len(want.Docs), len(got.Docs))
	}
	for i := range want.Scores {
		if math.Float64bits(want.Scores[i]) != math.Float64bits(got.Scores[i]) {
			t.Fatalf("%s: score %d is %x, want %x", name, i, math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
		}
	}
}

// TestFinishLayoutHandSorted pins finish on a fixture small enough to sort by
// hand: contexts ascending, runs ascending by paper, a repeated add keeping
// the highest score whichever order the adds came in, a score past 1 clamped,
// and one packed bitmap run per context.
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
	b := newBuilder(PatternBased, o)
	b.add("GO:3", 5, 0.25)
	b.add("GO:2", 4, 0.5)
	b.add("GO:2", 1, 0.2) // lower first,
	b.add("GO:2", 1, 0.7) // then higher: 0.7 stays,
	b.add("GO:2", 1, 0.3) // and a later lower one does not replace it
	b.add("GO:2", 0, 1+1e-15)
	b.add("GO:3", 2, 0.125)
	b.add("GO:2", 3, 1)
	b.reps["GO:2"] = 3
	b.decay["GO:3"] = 0.5
	b.inheritedFrom["GO:3"] = "GO:2"
	cs := b.finish()

	want := &Frozen{
		Kind:          PatternBased,
		Ctxs:          []ontology.TermID{"GO:2", "GO:3"},
		Offsets:       []int32{0, 4, 6},
		Docs:          []corpus.PaperID{0, 1, 3, 4, 2, 5},
		Scores:        []float64{1, 0.7, 1, 0.5, 0.125, 0.25},
		WordOffsets:   []int32{0, 1, 2},
		Words:         []uint64{1<<0 | 1<<1 | 1<<3 | 1<<4, 1<<2 | 1<<5},
		Reps:          map[ontology.TermID]corpus.PaperID{"GO:2": 3},
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
	if got := cs.ContextsOf(1); !reflect.DeepEqual(got, []ontology.TermID{"GO:2"}) {
		t.Fatalf("ContextsOf(1) = %v", got)
	}
}

// TestFinishLayoutRoundTrips: whatever a builder produced must be a layout
// FromFrozen accepts (it validates what finish promises: ascending contexts,
// spanning offsets) and binds to the same arrays, with every run ascending
// and every bitmap run the run's papers — per builder, over three corpora.
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
			"text":     BuildTextBased(index.BuildWorkers(a, 0), o, DefaultConfig()),
			"pattern":  BuildPatternBased(pattern.NewPosIndex(a), a, o, DefaultConfig(), pattern.DefaultConfig()),
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
			for i, ctx := range f.Ctxs {
				docs := f.Docs[f.Offsets[i]:f.Offsets[i+1]]
				var bits bitset.Set
				for k, d := range docs {
					if k > 0 && docs[k-1] >= d {
						t.Fatalf("%s: run of %s not strictly ascending at %d", name, ctx, k)
					}
					if s := f.Scores[int(f.Offsets[i])+k]; !(s > 0 && s <= 1) {
						t.Fatalf("%s: score %v of paper %d in %s outside (0,1]", name, s, d, ctx)
					}
					bits.Add(int(d))
				}
				if len(docs) == 0 || !reflect.DeepEqual([]uint64(bits), f.Words[f.WordOffsets[i]:f.WordOffsets[i+1]]) {
					t.Fatalf("%s: %s has %d papers and a bitmap run that is not theirs", name, ctx, len(docs))
				}
				if !reflect.DeepEqual(bound.Papers(ctx), built.Papers(ctx)) || bound.Size(ctx) != len(docs) {
					t.Fatalf("%s: accessors disagree on %s", name, ctx)
				}
			}
		}
	}
}

// TestBuiltSetConcurrentReads reads bitmaps and membership of a freshly
// built (not state-loaded) set from 8 goroutines, as a first-boot server's
// request goroutines do with no lock; run under -race.
func TestBuiltSetConcurrentReads(t *testing.T) {
	o, c, a, _ := fixture(t)
	cs := BuildTextBased(index.BuildWorkers(a, 0), o, DefaultConfig())
	ctxs := cs.Contexts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ctxs {
				ctx := ctxs[(k+g)%len(ctxs)]
				bits, n := cs.PaperBitset(ctx), 0
				for p := 0; p < c.Len(); p++ {
					if cs.Contains(ctx, corpus.PaperID(p)) != bits.Contains(p) {
						t.Errorf("%s: Contains and PaperBitset disagree on paper %d", ctx, p)
						return
					}
					if bits.Contains(p) {
						n++
					}
				}
				if n != cs.Size(ctx) {
					t.Errorf("%s: bitmap holds %d papers, set %d", ctx, n, cs.Size(ctx))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
