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
		f := a.Features(p.ID)
		if f == nil {
			t.Fatalf("no features for %d", p.ID)
		}
		if len(f.Tokens[SecTitle]) == 0 || len(f.Tokens[SecBody]) == 0 {
			t.Fatalf("paper %d missing section tokens", p.ID)
		}
		if len(f.AllTF) == 0 {
			t.Fatalf("paper %d has empty AllTF", p.ID)
		}
		if len(f.Authors) == 0 {
			t.Fatalf("paper %d has empty author set", p.ID)
		}
	}
	if a.Features(PaperID(-1)) != nil || a.Features(PaperID(9999)) != nil {
		t.Fatal("out-of-range Features must be nil")
	}
}

func TestAnalyzerTFIDFCaching(t *testing.T) {
	c, _ := testCorpus(t, 50)
	a := NewAnalyzerWorkers(c, 0)
	v1 := a.TFIDF(0, SecAbstract)
	v2 := a.TFIDF(0, SecAbstract)
	if len(v1) == 0 {
		t.Fatal("empty TF-IDF vector")
	}
	// Cached: same map returned.
	if &v1 == nil || len(v1) != len(v2) {
		t.Fatal("cache returned different vector")
	}
	all1 := a.TFIDFAll(0)
	all2 := a.TFIDFAll(0)
	if len(all1) == 0 || len(all1) != len(all2) {
		t.Fatal("TFIDFAll cache broken")
	}
	if a.TFIDF(PaperID(-1), SecTitle) != nil || a.TFIDFAll(PaperID(9999)) != nil {
		t.Fatal("out-of-range TFIDF must be nil")
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
		cos := vector.Cosine(qv, a.TFIDFAll(id))
		if cos < 0 || cos > 1.0000001 {
			t.Fatalf("cosine out of range: %v", cos)
		}
	}
}

func TestCoAuthorIndex(t *testing.T) {
	papers := []*Paper{
		{ID: 0, Title: "t", Abstract: "a", Body: "b", Authors: []string{"Ann Chen", "Bob Lee"}},
		{ID: 1, Title: "t", Abstract: "a", Body: "b", Authors: []string{"ann chen"}},
	}
	c, err := NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewAnalyzerWorkers(c, 0).CoAuthorIndex()
	if got := idx["ann chen"]; len(got) != 2 {
		t.Fatalf("ann chen papers = %v (case normalisation broken?)", got)
	}
	if got := idx["bob lee"]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("bob lee papers = %v", got)
	}
}
