package index

import (
	"reflect"
	"slices"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

func partsFixture(t *testing.T) (*corpus.Analyzer, *Index) {
	t.Helper()
	o, err := ontology.Generate(ontology.GenConfig{Seed: 5, NumTerms: 60, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(180))
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return a, must(BuildWorkers(a, 0))
}

// TestPartsRoundTrip: extracting the segmented arrays and rebinding them must
// reproduce the index — identical structure (Parts of both are deep-equal)
// and identical search results.
func TestPartsRoundTrip(t *testing.T) {
	a, ix := partsFixture(t)
	p := ix.Parts()
	got, err := FromParts(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got.Parts()) {
		t.Fatal("parts differ after rebind")
	}
	for _, q := range []string{"regulation", "cell response", "protein binding activity"} {
		want := ix.Search(q, Options{Limit: 25})
		have := got.Search(q, Options{Limit: 25})
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("query %q: results differ after parts round trip", q)
		}
	}
}

// TestFromPartsValidation: structurally broken parts are rejected, not
// bound (the O(terms + segments) checks and the doc pass — the rest of the
// per-element content is the writer's contract guarded by the store's
// CRCs). The offsets cases break the segment starts.
func TestFromPartsValidation(t *testing.T) {
	a, ix := partsFixture(t)
	cases := map[string]func(*Parts){
		"offsets-length": func(p *Parts) { p.Start = p.Start[:len(p.Start)-1] },
		"offsets-span":   func(p *Parts) { p.Start[len(p.Start)-1]++ },
		"offsets-order": func(p *Parts) {
			p.Start[1], p.Start[2] = p.Start[2]+1, p.Start[1]
		},
		"first-length":   func(p *Parts) { p.First = p.First[:len(p.First)-1] },
		"first-span":     func(p *Parts) { p.First[len(p.First)-1]++ },
		"first-order":    func(p *Parts) { p.First[1], p.First[2] = p.First[2]+1, p.First[1] },
		"start-past-doc": func(p *Parts) { p.Start[1] = int32(len(p.Docs) + 1) },
		"tf-size":        func(p *Parts) { p.TF = p.TF[:len(p.TF)-1] },
		"tf-zero":        func(p *Parts) { p.TF[len(p.TF)/2] = 0 },
		"doc-range":      func(p *Parts) { p.Docs[len(p.Docs)/2] = corpus.PaperID(len(p.Norms)) },
		"doc-negative":   func(p *Parts) { p.Docs[0] = -1 },
		"norms-size":     func(p *Parts) { p.Norms = p.Norms[:len(p.Norms)-1] },
	}
	for name, breakIt := range cases {
		t.Run(name, func(t *testing.T) {
			p := ix.Parts()
			// Deep-copy the slices the case mutates so cases stay independent.
			p.First = append([]int32(nil), p.First...)
			p.Start = append([]int32(nil), p.Start...)
			p.TF = append([]uint16(nil), p.TF...)
			p.Docs = append([]corpus.PaperID(nil), p.Docs...)
			p.Norms = append([]float64(nil), p.Norms...)
			breakIt(p)
			if _, err := FromParts(a, p); err == nil {
				t.Fatal("broken parts bound without error")
			}
		})
	}
}

// buildRangeWorkers constructs an index over only the papers with
// lo <= ID < hi by analysing them — the oracle SliceRange is checked against.
// The analyzer stays corpus-global, so a document's cosine against any query
// is bit for bit the full index's: the range restricts which documents have
// postings, never how they are weighted.
func buildRangeWorkers(a *corpus.Analyzer, lo, hi, workers int) *Index {
	return must(buildPapers(a, sortedPapers(a.Corpus(), lo, hi), workers))
}

// TestSliceRangeMatchesRangeBuild: an engine-visible equivalence between
// the two ways of making a shard index — re-analysing the range
// (buildRangeWorkers) versus binary-search slicing the global postings
// (SliceRange). The layouts differ by design (SliceRange keeps every
// segment, emptied where its papers fall outside the range, and borrows the
// TF column; a range build has only the segments its papers fill), so the
// check is behavioral: identical results for every query, and every term's
// postings, at several range splits, each of which leaves segments empty.
func TestSliceRangeMatchesRangeBuild(t *testing.T) {
	a, ix := partsFixture(t)
	n := a.Corpus().Len()
	parts := ix.Parts()
	ranges := [][2]int{{0, n}, {0, n / 2}, {n / 2, n}, {n / 3, 2 * n / 3}, {7, 8}, {0, 1}}
	queries := []string{"regulation", "cell response", "dna binding", "synthesis"}
	for _, r := range ranges {
		lo, hi := r[0], r[1]
		rebuilt := buildRangeWorkers(a, lo, hi, 1)
		sp := parts.SliceRange(lo, hi)
		if &sp.TF[0] != &parts.TF[0] || len(sp.TF) != len(parts.TF) {
			t.Fatalf("range [%d,%d): the sliced parts do not borrow the TF column", lo, hi)
		}
		empty := 0
		for s := range sp.TF {
			if sp.Start[s] == sp.Start[s+1] {
				empty++
			}
		}
		if (empty == 0) != (hi-lo == n) {
			t.Fatalf("range [%d,%d): %d empty segments", lo, hi, empty)
		}
		sliced, err := FromParts(a, sp)
		if err != nil {
			t.Fatalf("range [%d,%d): %v", lo, hi, err)
		}
		for term := range int32(ix.Terms()) {
			wd, wf := runOf(rebuilt, term)
			gd, gf := runOf(sliced, term)
			if !slices.Equal(wd, gd) || !slices.Equal(wf, gf) {
				t.Fatalf("range [%d,%d) term %d: sliced postings differ from rebuilt", lo, hi, term)
			}
		}
		for _, q := range queries {
			want := rebuilt.Search(q, Options{Limit: 50})
			have := sliced.Search(q, Options{Limit: 50})
			if len(want) == 0 && len(have) == 0 {
				continue
			}
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("range [%d,%d) query %q: sliced index diverges from rebuilt", lo, hi, q)
			}
		}
	}
}
