package corpus

import "testing"

func TestComputeStats(t *testing.T) {
	c, _ := testCorpus(t, 250)
	a := NewAnalyzerWorkers(c, 0)
	st := ComputeStats(c, a)
	if st.Papers != 250 {
		t.Fatalf("papers = %d", st.Papers)
	}
	if st.TotalTokens == 0 || st.MeanTokens < 100 {
		t.Fatalf("token stats: %+v", st)
	}
	if st.Vocabulary == 0 {
		t.Fatal("vocabulary empty")
	}
	if st.TotalCitations == 0 || st.MeanOutDegree <= 0 {
		t.Fatalf("citation stats: %+v", st)
	}
	if st.MaxInDegree <= 0 {
		t.Fatal("no paper is cited")
	}
	if st.UncitedFraction < 0 || st.UncitedFraction >= 1 {
		t.Fatalf("uncited fraction = %v", st.UncitedFraction)
	}
	if st.EvidenceTerms == 0 || st.EvidencePapers == 0 {
		t.Fatalf("evidence stats: %+v", st)
	}
	if st.MeanTopics < 1 || st.MeanTopics > 3 {
		t.Fatalf("mean topics = %v", st.MeanTopics)
	}
	if st.MinYear > st.MaxYear || st.MinYear < 1900 {
		t.Fatalf("year range: %d–%d", st.MinYear, st.MaxYear)
	}
	// Without analyzer: token stats skipped, rest intact.
	lite := ComputeStats(c, nil)
	if lite.TotalTokens != 0 || lite.Vocabulary != 0 {
		t.Fatal("nil analyzer must skip token stats")
	}
	if lite.TotalCitations != st.TotalCitations {
		t.Fatal("citation stats differ")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	c, err := NewCorpus(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(c, nil)
	if st.Papers != 0 {
		t.Fatalf("stats of empty corpus: %+v", st)
	}
}

func TestInDegreeHistogram(t *testing.T) {
	papers := []*Paper{
		{ID: 0}, {ID: 1, References: []PaperID{0}}, {ID: 2, References: []PaperID{0}},
	}
	c, err := NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	h := InDegreeHistogram(c)
	// Degrees: paper 0 has 2, papers 1,2 have 0 → [(0,2),(2,1)].
	if len(h) != 2 || h[0] != [2]int{0, 2} || h[1] != [2]int{2, 1} {
		t.Fatalf("histogram = %v", h)
	}
	// Counts sum to paper count.
	total := 0
	for _, e := range h {
		total += e[1]
	}
	if total != c.Len() {
		t.Fatalf("histogram total = %d", total)
	}
}
