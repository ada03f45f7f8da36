package corpus

import (
	"math/rand"
	"slices"
	"testing"

	"ctxsearch/internal/vector"
)

// TestAppendTFOrder holds appendTF's row order to slices.Sort's: random
// streams with NoTerm tokens over dictionaries of 1, 63, 64, 65 and 1 158
// terms, rows of 1, 32, 33 and random numbers of distinct terms, half of
// them holding IDs 0 and the largest. Each row must be the sorted distinct
// terms with their counts, appended after what the slices held, and the
// scratch must be all zero again. A row of no terms appends nothing.
func TestAppendTFOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := new(Analyzer)
	for _, n := range []int{1, 63, 64, 65, 1158} {
		sc := a.lease(n)
		for trial := range 400 {
			d := min(n, []int{1, 32, 33, 1 + rng.Intn(n)}[trial%4])
			ids := rng.Perm(n)
			if trial%8 < 4 {
				i := slices.Index(ids, 0)
				ids[0], ids[i] = ids[i], ids[0]
				j := slices.Index(ids, n-1)
				ids[d-1], ids[j] = ids[j], ids[d-1]
			}
			want := map[int32]float64{}
			var toks []int32
			for _, id := range ids[:d] {
				for range 1 + rng.Intn(3) {
					toks = append(toks, int32(id))
					want[int32(id)]++
				}
			}
			for range rng.Intn(4) {
				toks = append(toks, NoTerm)
			}
			rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
			wantTerms := make([]int32, 0, len(want))
			for id := range want {
				wantTerms = append(wantTerms, id)
			}
			slices.Sort(wantTerms)

			terms, counts := sc.appendTF([]int32{-7}, []float64{-7}, toks)
			if terms[0] != -7 || !slices.Equal(terms[1:], wantTerms) {
				t.Fatalf("dictionary %d, %d distinct terms: row %v, want -7 then %v", n, d, terms, wantTerms)
			}
			for k, id := range wantTerms {
				if counts[k+1] != want[id] {
					t.Fatalf("dictionary %d, term %d: count %v, want %v", n, id, counts[k+1], want[id])
				}
			}
			if slices.ContainsFunc(sc.cnt, func(c int32) bool { return c != 0 }) ||
				slices.ContainsFunc(sc.bitmap, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("dictionary %d, %d distinct terms: scratch not zero after the row", n, d)
			}
		}
		for _, toks := range [][]int32{nil, {NoTerm, NoTerm}} {
			if terms, counts := sc.appendTF([]int32{-7}, nil, toks); len(terms) != 1 || len(counts) != 0 {
				t.Fatalf("dictionary %d, row %v: appended %v, %v; want nothing", n, toks, terms[1:], counts)
			}
		}
	}
}

func TestAnalyzerFeatures(t *testing.T) {
	c, _ := testCorpus(t, 120)
	a := NewAnalyzerWorkers(c, 0)
	if docs, _ := a.DF().Counts(); docs != c.Len() {
		t.Fatalf("DF docs = %d", docs)
	}
	for _, p := range c.Papers() {
		toks := a.Tokens(p.ID)
		if toks == nil {
			t.Fatalf("no tokens for %d", p.ID)
		}
		if len(toks.Section(SecTitle)) == 0 || len(toks.Section(SecBody)) == 0 {
			t.Fatalf("paper %d missing section tokens", p.ID)
		}
		if r := a.Row(p.ID, WholeText); len(r.Terms) == 0 || r.Norm == 0 {
			t.Fatalf("paper %d has an empty whole-paper row", p.ID)
		}
	}
	if a.Tokens(PaperID(-1)) != nil || a.Tokens(PaperID(9999)) != nil {
		t.Fatal("out-of-range Tokens must be nil")
	}
	if r := a.Row(PaperID(9999), SecTitle); r.Terms != nil || r.Norm != 0 {
		t.Fatal("out-of-range rows must be empty")
	}
}

func TestQueryVector(t *testing.T) {
	c, _ := testCorpus(t, 50)
	a := NewAnalyzerWorkers(c, 0)
	qv := a.QueryVector("transcription regulation binding")
	if len(qv) == 0 {
		t.Fatal("query vector empty")
	}
	// Self-similarity sanity: a paper is most similar to its own title
	// terms among random other titles more often than not; just check
	// cosine is in range.
	for id := PaperID(0); id < 10; id++ {
		cos := vector.Cosine(qv, a.Centroid([]Row{a.Row(id, WholeText)}).Vector())
		if cos < 0 || cos > 1.0000001 {
			t.Fatalf("cosine out of range: %v", cos)
		}
	}
}

func TestCoAuthorIndex(t *testing.T) {
	papers := []*Paper{
		{ID: 0, Title: "t", Abstract: "a", Body: "b", Authors: []string{"Ann Chen", "Bob Lee"}},
		{ID: 1, Title: "t", Abstract: "a", Body: "b", Authors: []string{"ann chen", "ANN CHEN"}},
	}
	c, err := NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	idx := c.CoAuthorIndex()
	if got := idx["ann chen"]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("ann chen papers = %v (case normalisation broken?)", got)
	}
	if got := idx["bob lee"]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("bob lee papers = %v", got)
	}
}
