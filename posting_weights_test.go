package ctxsearch

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/store"
)

// TestPostingWeightsFromTF: a posting segment stores the term frequency its
// papers share and the index derives their weight, so every segment's
// derived weight must be, bit for bit, the weight the eager analyzer's
// whole-text row gives the term in each of its papers — for the built
// index, for one bound to a memory-mapped state file and for one bound to
// the byte-copy read of it — and every row term must have its posting. Two
// scales (smallConfig and 800 papers / 160 terms) at seeds 1 and 7.
func TestPostingWeightsFromTF(t *testing.T) {
	small := smallConfig()
	large := DefaultConfig()
	large.Papers, large.OntologyTerms = 800, 160
	for _, base := range []Config{small, large} {
		for _, seed := range []int64{1, 7} {
			cfg := base
			cfg.Seed = seed
			sys, err := NewSyntheticSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("papers=%d seed=%d", cfg.Papers, seed)
			checkPostingWeights(t, name+" built", sys, sys)
			path := filepath.Join(t.TempDir(), "state.v5")
			st := &store.State{ContextSet: sys.BuildTextContextSet(), Index: sys.Index().Parts(), DF: sys.Analyzer().DF()}
			if err := store.SaveFile(path, st); err != nil {
				t.Fatal(err)
			}
			for _, noMmap := range []string{"", "1"} {
				t.Setenv("CTXSEARCH_NO_MMAP", noMmap)
				mapped, err := store.Open(path, sys.Ontology)
				if err != nil {
					t.Fatal(err)
				}
				parts, err := mapped.IndexParts()
				if err != nil {
					t.Fatal(err)
				}
				df, err := mapped.DF()
				if err != nil {
					t.Fatal(err)
				}
				frozen, err := NewFrozenSystem(sys.Ontology, sys.Corpus, parts, df, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkPostingWeights(t, fmt.Sprintf("%s zero-copy=%v", name, mapped.ZeroCopy()), sys, frozen)
				if err := mapped.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// checkPostingWeights compares every posting weight of got's index, one
// per segment, with the eager analyzer's whole-text rows of want.
func checkPostingWeights(t *testing.T, name string, want, got *System) {
	t.Helper()
	a, ix := want.Analyzer(), got.Index()
	rowTerms := 0
	for p := range want.Corpus.Len() {
		rowTerms += len(a.Row(corpus.PaperID(p), corpus.WholeText).Terms)
	}
	postings := 0
	for term := range int32(ix.Terms()) {
		lo, hi := ix.Segments(term)
		for s := lo; s < hi; s++ {
			docs, tf := ix.Segment(s)
			w := ix.Weight(term, tf)
			postings += len(docs)
			for _, d := range docs {
				r := a.Row(d, corpus.WholeText)
				i, ok := slices.BinarySearch(r.Terms, term)
				if !ok {
					t.Fatalf("%s: paper %d has a posting of term %d its row lacks", name, d, term)
				}
				if math.Float64bits(w) != math.Float64bits(r.Weights[i]) {
					t.Fatalf("%s: paper %d term %q: segment TF %d gives weight %v (%#x), the row %v (%#x)",
						name, d, a.Term(term), tf, w, math.Float64bits(w), r.Weights[i], math.Float64bits(r.Weights[i]))
				}
			}
		}
	}
	if postings != rowTerms {
		t.Fatalf("%s: %d postings for %d row terms", name, postings, rowTerms)
	}
}
