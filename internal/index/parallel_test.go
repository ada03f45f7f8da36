package index

import (
	"reflect"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// TestParallelBuildMatchesSequential is the golden equivalence test for the
// sharded index build: the segmented layout — first segments, segment
// starts and TFs, the doc column — and the norms must be byte-identical at
// every worker count.
func TestParallelBuildMatchesSequential(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 60, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	seq := must(BuildWorkers(a, 1))
	for _, workers := range []int{2, 3, 8} {
		par := must(BuildWorkers(a, workers))
		if !reflect.DeepEqual(seq.first, par.first) || !reflect.DeepEqual(seq.start, par.start) {
			t.Fatalf("workers=%d: segment offsets differ", workers)
		}
		if !reflect.DeepEqual(seq.docs, par.docs) {
			t.Fatalf("workers=%d: packed doc column differs", workers)
		}
		if !reflect.DeepEqual(seq.tf, par.tf) {
			t.Fatalf("workers=%d: segment term-frequency column differs", workers)
		}
		if !reflect.DeepEqual(seq.norms, par.norms) {
			t.Fatalf("workers=%d: norms differ", workers)
		}
	}
}

// TestParallelBuildSearchEquivalence double-checks the user-visible
// behaviour: identical hits for a query at different build worker counts.
func TestParallelBuildSearchEquivalence(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 60, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	seq := must(BuildWorkers(a, 1))
	par := must(BuildWorkers(a, 4))
	for _, q := range []string{
		"regulation of rna transcription factor binding",
		"dna repair damage response",
		"protein kinase signaling",
	} {
		hs, hp := seq.Search(q, Options{}), par.Search(q, Options{})
		if !reflect.DeepEqual(hs, hp) {
			t.Fatalf("query %q: hits differ between worker counts", q)
		}
	}
}

// TestBuildRangeWorkersPartition pins the sharding contract: building the
// index over a paper-ID range keeps the corpus-global term weighting and
// norms (shards share the analyzer), restricts each posting list to exactly
// the range's papers, and the union of a disjoint cover's postings
// reassembles the full index.
func TestBuildRangeWorkersPartition(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 3, NumTerms: 60, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(150))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	full := must(BuildWorkers(a, 4))

	// Full-range build is the whole index.
	whole := buildRangeWorkers(a, 0, c.Len(), 2)
	if !reflect.DeepEqual(full.Parts(), whole.Parts()) {
		t.Fatal("buildRangeWorkers over the full range differs from BuildWorkers")
	}

	for _, cuts := range [][]int{{0, 150}, {0, 50, 150}, {0, 40, 90, 150}, {0, 1, 75, 149, 150}} {
		var parts []*Index
		for i := 0; i+1 < len(cuts); i++ {
			parts = append(parts, buildRangeWorkers(a, cuts[i], cuts[i+1], 2))
		}
		for term := range int32(full.Terms()) {
			wantDocs, wantWts := runOf(full, term)
			var gotDocs []corpus.PaperID
			var gotWts []uint16
			for _, p := range parts {
				d, w := runOf(p, term)
				gotDocs = append(gotDocs, d...)
				gotWts = append(gotWts, w...)
			}
			if len(gotDocs) != len(wantDocs) {
				t.Fatalf("cuts %v term %d: union has %d postings, full %d", cuts, term, len(gotDocs), len(wantDocs))
			}
			for k := range wantDocs {
				if gotDocs[k] != wantDocs[k] || gotWts[k] != wantWts[k] {
					t.Fatalf("cuts %v term %d posting %d: got (%d,%v), want (%d,%v)",
						cuts, term, k, gotDocs[k], gotWts[k], wantDocs[k], wantWts[k])
				}
			}
		}
		// Norm slices stay sized to the full corpus (global paper IDs index
		// them directly), hold the corpus-global norm for every in-range
		// paper, and zero elsewhere (out-of-range papers never score).
		for pi, p := range parts {
			if len(p.norms) != len(full.norms) {
				t.Fatalf("cuts %v part %d: norms sized %d, want %d", cuts, pi, len(p.norms), len(full.norms))
			}
			for id, norm := range p.norms {
				if id >= cuts[pi] && id < cuts[pi+1] {
					if norm != full.norms[id] {
						t.Fatalf("cuts %v part %d paper %d: norm %v, want %v", cuts, pi, id, norm, full.norms[id])
					}
				} else if norm != 0 {
					t.Fatalf("cuts %v part %d paper %d: out-of-range norm %v", cuts, pi, id, norm)
				}
			}
		}
	}
}
