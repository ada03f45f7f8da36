package pattern

import (
	"fmt"
	"slices"
	"testing"

	"ctxsearch/internal/corpus"
)

func miningCorpus(t *testing.T) (*corpus.Analyzer, *PosIndex) {
	t.Helper()
	// "zinc finger protein" appears in both docs; "binds zinc" in one.
	papers := []*corpus.Paper{
		{ID: 0, Title: "zinc finger protein domains", Abstract: "zinc finger protein binds zinc", Body: "study of zinc finger protein structure", Authors: []string{"a b"}},
		{ID: 1, Title: "novel zinc finger protein", Abstract: "zinc finger protein function", Body: "more text about transport", Authors: []string{"c d"}},
		{ID: 2, Title: "unrelated paper", Abstract: "nothing shared", Body: "completely different content", Authors: []string{"e f"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return a, NewPosIndex(a)
}

func TestMineFrequentPhrases(t *testing.T) {
	_, ix := miningCorpus(t)
	phrases := MineFrequentPhrases(ix, []corpus.PaperID{0, 1}, 2)
	if len(phrases) == 0 {
		t.Fatal("no frequent phrases mined")
	}
	byKey := map[string]FreqPhrase{}
	for _, p := range phrases {
		byKey[fmt.Sprint(p.Words)] = p
	}
	want := phrase(ix, "zinc finger protein")
	key := fmt.Sprint(want)
	fp, ok := byKey[key]
	if !ok {
		t.Fatalf("trigram %q not mined; got %v", key, phrases)
	}
	if fp.Support != 2 {
		t.Fatalf("trigram support = %d, want 2", fp.Support)
	}
	if fp.Occurrences < 4 {
		t.Fatalf("trigram occurrences = %d, want ≥ 4", fp.Occurrences)
	}
	// Apriori property: every sub-phrase of a frequent phrase is frequent.
	for _, sub := range [][]int32{{want[0]}, {want[1]}, {want[2]}, {want[0], want[1]}, {want[1], want[2]}} {
		k := fmt.Sprint(sub)
		if _, ok := byKey[k]; !ok {
			t.Errorf("sub-phrase %q missing (apriori closure violated)", k)
		}
	}
	// "binds zinc" occurs in only one doc → must be absent at minimum support 2.
	if _, ok := byKey[fmt.Sprint(phrase(ix, "binds zinc"))]; ok {
		t.Error("sub-support phrase mined")
	}
}

func TestMineRespectsMaxLen(t *testing.T) {
	_, ix := miningCorpus(t)
	phrases := mineFrequentPhrases(ix, []corpus.PaperID{0, 1}, 2, 1)
	for _, p := range phrases {
		if len(p.Words) > 1 {
			t.Fatalf("maxLen violated: %v", p.Words)
		}
	}
}

func TestMineDeterministicOrder(t *testing.T) {
	_, ix := miningCorpus(t)
	a := mineFrequentPhrases(ix, []corpus.PaperID{0, 1}, 1, 2)
	b := mineFrequentPhrases(ix, []corpus.PaperID{0, 1}, 1, 2)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if !slices.Equal(a[i].Words, b[i].Words) || a[i].Support != b[i].Support {
			t.Fatalf("order not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Sorted by descending support.
	for i := 1; i < len(a); i++ {
		if a[i].Support > a[i-1].Support {
			t.Fatalf("not sorted by support: %v", a)
		}
	}
}

func TestMineEmptyDocs(t *testing.T) {
	_, ix := miningCorpus(t)
	if got := mineFrequentPhrases(ix, nil, 1, 2); len(got) != 0 {
		t.Fatalf("empty doc set mined %v", got)
	}
}
