package index_test

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/store"
)

// TestSegmentsRegroupPostings: every term's segments partition its postings
// into runs of one TF each — the TF whose weight is the one the analyzer's
// whole-text row gives the paper — TFs strictly ascending, papers ascending
// within a segment, no segment empty; and the segment columns are the same
// at every worker count, and the same built, mapped and byte-copied.
func TestSegmentsRegroupPostings(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 7, NumTerms: 30, MaxDepth: 5, SecondParentProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	gen := corpus.DefaultGenConfig(90)
	gen.Seed = 7
	c, err := corpus.Generate(o, gen)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	build := func(workers int) *index.Index {
		ix, err := index.BuildWorkers(a, workers)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix := build(1)
	want := ix.Parts()
	for _, workers := range []int{2, 3, 8} {
		if got := build(workers).Parts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: segment columns differ from workers=1", workers)
		}
	}

	path := filepath.Join(t.TempDir(), "state")
	st := &store.State{ContextSet: contextset.BuildTextBased(ix, o, 0), Index: want, DF: a.DF()}
	if err := store.SaveFile(path, st); err != nil {
		t.Fatal(err)
	}
	for _, noMmap := range []string{"", "1"} {
		t.Setenv("CTXSEARCH_NO_MMAP", noMmap)
		m, err := store.Open(path, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.IndexParts()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("zero-copy=%v: the file's segment columns differ from the built ones", m.ZeroCopy())
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rowTerms := 0
	for d := range c.Len() {
		rowTerms += len(a.Row(corpus.PaperID(d), corpus.WholeText).Terms)
	}
	postings := 0
	for term := range int32(ix.Terms()) {
		lo, hi := ix.Segments(term)
		prev := uint16(0)
		for s := lo; s < hi; s++ {
			docs, tf := ix.Segment(s)
			if tf <= prev {
				t.Fatalf("term %d: segment TFs %d, %d not strictly ascending", term, prev, tf)
			}
			if len(docs) == 0 {
				t.Fatalf("term %d: empty segment %d", term, s)
			}
			for k, d := range docs {
				if k > 0 && docs[k-1] >= d {
					t.Fatalf("term %d segment %d: papers not ascending", term, s)
				}
				r := a.Row(d, corpus.WholeText)
				i, ok := slices.BinarySearch(r.Terms, term)
				if !ok {
					t.Fatalf("term %d: paper %d has a posting its row lacks", term, d)
				}
				if w := ix.Weight(term, tf); math.Float64bits(w) != math.Float64bits(r.Weights[i]) {
					t.Fatalf("term %d: paper %d in the segment of TF %d (weight %v), row weight %v", term, d, tf, w, r.Weights[i])
				}
			}
			prev = tf
			postings += len(docs)
		}
	}
	if postings != rowTerms {
		t.Fatalf("segments hold %d postings, the rows %d terms", postings, rowTerms)
	}
}
