package corpus

import (
	"testing"

	"ctxsearch/internal/vector"
)

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
