package pattern

import (
	"testing"

	"ctxsearch/internal/corpus"
)

// tinyCorpus builds a small corpus with known phrase placement. Note the
// analyzer stems and drops stopwords, so tests use stem-stable words.
func tinyCorpus(t *testing.T) (*corpus.Analyzer, *PosIndex) {
	t.Helper()
	papers := []*corpus.Paper{
		{ID: 0, Title: "rna polymerase kinase", Abstract: "kinase rna polymerase assay", Body: "unrelated words here entirely", IndexTerms: []string{"rna polymerase"}, Authors: []string{"a b"}},
		{ID: 1, Title: "dna helicase", Abstract: "rna polymerase dna helicase", Body: "rna polymerase rna polymerase", Authors: []string{"c d"}},
		{ID: 2, Title: "metallurgy corrosion", Abstract: "steel alloys", Body: "corrosion steel", Authors: []string{"e f"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return a, NewPosIndexWorkers(a, 0)
}

func TestPhraseOccurrences(t *testing.T) {
	a, ix := tinyCorpus(t)
	phrase := a.Tokenizer().Terms("rna polymerase")
	occs := ix.PhraseOccurrences(phrase, nil)
	if len(occs) != 2 {
		t.Fatalf("docs with phrase = %d, want 2 (docs 0 and 1): %v", len(occs), occs)
	}
	// Doc 0: title, abstract, index terms → 3 occurrences.
	if len(occs[0]) != 3 {
		t.Fatalf("doc 0 occurrences = %d, want 3: %v", len(occs[0]), occs[0])
	}
	// Doc 1: abstract + body twice → 3 occurrences.
	if len(occs[1]) != 3 {
		t.Fatalf("doc 1 occurrences = %d, want 3: %v", len(occs[1]), occs[1])
	}
	// Section resolution: first occurrence in doc 0 is the title.
	if occs[0][0].Section != corpus.SecTitle {
		t.Fatalf("first occurrence section = %v", occs[0][0].Section)
	}
}

func TestPhraseOccurrencesWithin(t *testing.T) {
	a, ix := tinyCorpus(t)
	phrase := a.Tokenizer().Terms("rna polymerase")
	occs := ix.PhraseOccurrences(phrase, map[corpus.PaperID]bool{1: true})
	if len(occs) != 1 || len(occs[1]) == 0 {
		t.Fatalf("within filter broken: %v", occs)
	}
}

func TestPhraseDoesNotCrossSections(t *testing.T) {
	a, ix := tinyCorpus(t)
	// Doc 0 title ends "...kinase", abstract begins "kinase ...". The
	// bigram "kinase kinase" must NOT match across the boundary.
	phrase := a.Tokenizer().Terms("kinase kinase")
	if occs := ix.PhraseOccurrences(phrase, nil); len(occs) != 0 {
		t.Fatalf("phrase crossed section boundary: %v", occs)
	}
}

func TestDocFreqOfPhrase(t *testing.T) {
	a, ix := tinyCorpus(t)
	for _, tc := range []struct {
		phrase []string
		want   int
	}{
		{a.Tokenizer().Terms("rna polymerase"), 2},
		{a.Tokenizer().Terms("kinase rna polymerase"), 1}, // doc 0's abstract only
		{a.Tokenizer().Terms("polymerase rna"), 1},        // doc 1's body repeats the pair
		{a.Tokenizer().Terms("polymerase kinase assay"), 0},
		{a.Tokenizer().Terms("kinase rna polymerase assay unrelated words here entirely"), 0}, // longer than any section
		{[]string{"absent"}, 0},
		{nil, 0},
	} {
		if got := ix.DocFreqOfPhrase(tc.phrase); got != tc.want {
			t.Errorf("DocFreqOfPhrase(%v) = %d, want %d", tc.phrase, got, tc.want)
		}
	}
}

func TestWindowStopsAtSectionBoundary(t *testing.T) {
	a, ix := tinyCorpus(t)
	phrase := a.Tokenizer().Terms("rna polymerase")
	occs := ix.PhraseOccurrences(phrase, map[corpus.PaperID]bool{0: true})
	first := occs[0][0] // title occurrence at position 0
	l, r := ix.Window(0, first.Pos, len(phrase), 5)
	if len(l) != 0 {
		t.Fatalf("left window at document start = %v", l)
	}
	// Title is "rna polymeras kinas" (stemmed) — right window is only
	// "kinas", then the section gap stops it.
	if len(r) != 1 {
		t.Fatalf("right window crossed section boundary: %v", r)
	}
}

func TestWordDocFreq(t *testing.T) {
	a, ix := tinyCorpus(t)
	stem := a.Tokenizer().Terms("corrosion")[0]
	if got := ix.WordDocFreq(stem); got != 1 {
		t.Fatalf("WordDocFreq(corrosion) = %d", got)
	}
}
