package pattern

import (
	"slices"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
)

// tinyCorpus builds a small corpus with known phrase placement. Note the
// analyzer stems and drops stopwords, so tests use stem-stable words.
// Paper 3 has an empty title, and one of its phrases ends exactly at the end
// of its abstract.
func tinyCorpus(t *testing.T) (*corpus.Analyzer, *PosIndex) {
	t.Helper()
	c, err := corpus.NewCorpus(tinyPapers())
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return a, NewPosIndex(a)
}

func tinyPapers() []*corpus.Paper {
	return []*corpus.Paper{
		{ID: 0, Title: "rna polymerase kinase", Abstract: "kinase rna polymerase assay", Body: "unrelated words here entirely", IndexTerms: []string{"rna polymerase"}, Authors: []string{"a b"}},
		{ID: 1, Title: "dna helicase", Abstract: "rna polymerase dna helicase", Body: "rna polymerase rna polymerase", Authors: []string{"c d"}},
		{ID: 2, Title: "metallurgy corrosion", Abstract: "steel alloys", Body: "corrosion steel", Authors: []string{"e f"}},
		{ID: 3, Title: "", Abstract: "motif zinc finger", Body: "zinc finger motif found", Authors: []string{"g h"}},
	}
}

// phrase tokenizes text into the index's term IDs.
func phrase(ix *PosIndex, text string) []int32 { return ix.nameIDs(text) }

// byDoc groups occurrences by document.
func byDoc(occs []Occurrence) map[corpus.PaperID][]Occurrence {
	out := make(map[corpus.PaperID][]Occurrence)
	for _, oc := range occs {
		out[oc.Doc] = append(out[oc.Doc], oc)
	}
	return out
}

// papers returns the set of the given paper IDs.
func papers(ids ...int) bitset.Set {
	var s bitset.Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// words renders term IDs back to their strings.
func words(a *corpus.Analyzer, ids []int32) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = a.Term(id)
	}
	return out
}

func TestPhraseOccurrences(t *testing.T) {
	_, ix := tinyCorpus(t)
	occs := byDoc(ix.PhraseOccurrences(phrase(ix, "rna polymerase"), nil, nil))
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
	_, ix := tinyCorpus(t)
	occs := byDoc(ix.PhraseOccurrences(phrase(ix, "rna polymerase"), papers(1), nil))
	if len(occs) != 1 || len(occs[1]) == 0 {
		t.Fatalf("within filter broken: %v", occs)
	}
}

func TestPhraseDoesNotCrossSections(t *testing.T) {
	_, ix := tinyCorpus(t)
	// Doc 0 title ends "...kinase", abstract begins "kinase ...". The
	// bigram "kinase kinase" must NOT match across the boundary.
	if occs := ix.PhraseOccurrences(phrase(ix, "kinase kinase"), nil, nil); len(occs) != 0 {
		t.Fatalf("phrase crossed section boundary: %v", occs)
	}
	// Doc 3's abstract ends "...finger", its body begins "zinc ...".
	if occs := ix.PhraseOccurrences(phrase(ix, "finger zinc"), nil, nil); len(occs) != 0 {
		t.Fatalf("phrase crossed section boundary: %v", occs)
	}
}

func TestDocFreqOfPhrase(t *testing.T) {
	_, ix := tinyCorpus(t)
	for _, tc := range []struct {
		phrase []int32
		want   int
	}{
		{phrase(ix, "rna polymerase"), 2},
		{phrase(ix, "kinase rna polymerase"), 1}, // doc 0's abstract only
		{phrase(ix, "polymerase rna"), 1},        // doc 1's body repeats the pair
		{phrase(ix, "polymerase kinase assay"), 0},
		{phrase(ix, "kinase rna polymerase assay unrelated words here entirely"), 0}, // longer than any section
		{phrase(ix, "absent"), 0},
		{nil, 0},
	} {
		if got := ix.DocFreqOfPhrase(tc.phrase); got != tc.want {
			t.Errorf("DocFreqOfPhrase(%v) = %d, want %d", tc.phrase, got, tc.want)
		}
	}
}

func TestWindowStopsAtSectionBoundary(t *testing.T) {
	_, ix := tinyCorpus(t)
	phr := phrase(ix, "rna polymerase")
	occs := byDoc(ix.PhraseOccurrences(phr, papers(0), nil))
	first := occs[0][0] // title occurrence at position 0
	l, r := ix.Window(0, first.Pos, len(phr), 5)
	if len(l) != 0 {
		t.Fatalf("left window at document start = %v", l)
	}
	// Title is "rna polymeras kinas" (stemmed) — right window is only
	// "kinas", then the section gap stops it.
	if len(r) != 1 {
		t.Fatalf("right window crossed section boundary: %v", r)
	}
}

// TestEmptyTitleAndPhraseAtSectionEnd: in a paper with no title the first
// occurrence lies in the abstract, at stream position 0; a phrase that ends
// exactly where its section ends has an empty right window, and one that
// starts where its section starts an empty left one.
func TestEmptyTitleAndPhraseAtSectionEnd(t *testing.T) {
	a, ix := tinyCorpus(t)
	phr := phrase(ix, "zinc finger")
	occs := ix.PhraseOccurrences(phr, papers(3), nil)
	want := []Occurrence{{Doc: 3, Pos: 1, Section: corpus.SecAbstract}, {Doc: 3, Pos: 3, Section: corpus.SecBody}}
	if !slices.Equal(occs, want) {
		t.Fatalf("occurrences = %v, want %v", occs, want)
	}
	l, r := ix.Window(3, occs[0].Pos, len(phr), 4)
	if got := words(a, l); len(r) != 0 || !slices.Equal(got, words(a, phrase(ix, "motif"))) {
		t.Fatalf("abstract window = %v | %v, want [motif] | []", got, words(a, r))
	}
	l, r = ix.Window(3, occs[1].Pos, len(phr), 4)
	if got := words(a, r); len(l) != 0 || !slices.Equal(got, words(a, phrase(ix, "motif found"))) {
		t.Fatalf("body window = %v | %v, want [] | [motif found]", words(a, l), got)
	}
}

// TestNoTermSlotStopsPhrasesAndWindows: a frozen analyzer over a corpus
// with words its dictionary lacks turns them into NoTerm slots. A phrase
// never matches across one, a window stops at one, and mining never counts
// one.
func TestNoTermSlotStopsPhrasesAndWindows(t *testing.T) {
	a, _ := tinyCorpus(t)
	c, err := corpus.NewCorpus([]*corpus.Paper{
		{ID: 0, Title: "rna zyxwvut polymerase", Abstract: "kinase rna polymerase zyxwvut assay", Body: "rna polymerase", Authors: []string{"a b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fa := corpus.NewAnalyzerFrozen(c, a.DF())
	ix := NewPosIndex(fa)
	if ids := fa.Tokens(0).IDs; !slices.Contains(ids, corpus.NoTerm) {
		t.Fatalf("stream %v has no NoTerm slot", ids)
	}
	phr := phrase(ix, "rna polymerase")
	occs := ix.PhraseOccurrences(phr, nil, nil)
	if len(occs) != 2 || occs[0].Section != corpus.SecAbstract || occs[1].Section != corpus.SecBody {
		t.Fatalf("occurrences = %v, want one in the abstract and one in the body", occs)
	}
	l, r := ix.Window(0, occs[0].Pos, len(phr), 4)
	if got := words(fa, l); len(r) != 0 || !slices.Equal(got, words(fa, phrase(ix, "kinase"))) {
		t.Fatalf("window = %v | %v, want [kinas] | []", got, words(fa, r))
	}
	if got := ix.DocFreqOfPhrase(phrase(ix, "polymerase assay")); got != 0 {
		t.Fatalf("phrase across a NoTerm slot found in %d docs", got)
	}
	for _, fp := range MineFrequentPhrases(ix, []corpus.PaperID{0}, 1) {
		if slices.Contains(fp.Words, corpus.NoTerm) {
			t.Fatalf("mined a phrase with a NoTerm slot: %v", fp.Words)
		}
	}
}
