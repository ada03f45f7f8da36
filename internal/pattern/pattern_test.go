package pattern

import (
	"slices"
	"strings"
	"testing"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// patternFixture builds an ontology with a term whose name appears in the
// training papers, plus distractor papers.
func patternFixture(t *testing.T) (*ontology.Ontology, *corpus.Corpus, *corpus.Analyzer, *PosIndex) {
	t.Helper()
	o := ontology.New()
	mustAdd := func(tm ontology.Term) {
		t.Helper()
		if err := o.Add(tm); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(ontology.Term{ID: "GO:1", Name: "molecular function"})
	mustAdd(ontology.Term{ID: "GO:2", Name: "zinc finger binding", Parents: []ontology.TermID{"GO:1"}})
	mustAdd(ontology.Term{ID: "GO:3", Name: "calcium transport", Parents: []ontology.TermID{"GO:1"}})
	if err := o.Build(); err != nil {
		t.Fatal(err)
	}
	papers := []*corpus.Paper{
		// Training papers for GO:2 — term name appears contiguously.
		{ID: 0, Title: "zinc finger binding domains", Abstract: "we study zinc finger binding in cells with tremendous care", Body: "the zinc finger binding assay revealed strong effects", Authors: []string{"a b"}, Topics: []ontology.TermID{"GO:2"}, Evidence: true},
		{ID: 1, Title: "novel zinc finger binding factors", Abstract: "zinc finger binding proteins are common", Body: "cells show zinc finger binding activity everywhere", Authors: []string{"c d"}, Topics: []ontology.TermID{"GO:2"}, Evidence: true},
		// A paper that mentions the phrase but is not training.
		{ID: 2, Title: "a zinc finger binding survey", Abstract: "survey text", Body: "body text only", Authors: []string{"e f"}, Topics: []ontology.TermID{"GO:2"}},
		// Distractors.
		{ID: 3, Title: "calcium transport channels", Abstract: "calcium transport in muscle", Body: "transport of calcium ions", Authors: []string{"g h"}, Topics: []ontology.TermID{"GO:3"}, Evidence: true},
		{ID: 4, Title: "metallurgy of steel", Abstract: "corrosion and alloys", Body: "steel is strong", Authors: []string{"i j"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	a := corpus.NewAnalyzerWorkers(c, 0)
	return o, c, a, NewPosIndex(a)
}

func TestBuildPatterns(t *testing.T) {
	o, c, a, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	set := build(ix, o, "GO:2", c.EvidencePapers("GO:2"), df, maxSignificant)
	if len(set.Patterns) == 0 {
		t.Fatal("no patterns built")
	}
	// The full term name must appear as a regular pattern's middle, typed
	// as containing term words.
	foundName := false
	for _, p := range set.Patterns {
		if mk := middleKey(a, p); p.Kind == Regular && strings.Contains(mk, "zinc") && strings.Contains(mk, "bind") {
			foundName = true
			if !p.HasTermWords {
				t.Error("term-name pattern not flagged HasTermWords")
			}
			if p.Score <= 0 {
				t.Error("pattern score must be positive")
			}
			if len(p.Left) == 0 && len(p.Right) == 0 {
				t.Error("term-name pattern collected no context words")
			}
		}
	}
	if !foundName {
		t.Fatalf("term-name pattern missing: %v", middleKeys(a, set))
	}
	// Scores sorted descending.
	for i := 1; i < len(set.Patterns); i++ {
		if set.Patterns[i].Score > set.Patterns[i-1].Score {
			t.Fatal("patterns not sorted by score")
		}
	}
}

// middleKey renders a pattern's middle tuple as its space-joined words.
func middleKey(a *corpus.Analyzer, p *Pattern) string {
	return strings.Join(words(a, p.Middle), " ")
}

func middleKeys(a *corpus.Analyzer, s *Set) []string {
	var out []string
	for _, p := range s.Patterns {
		out = append(out, p.Kind.String()+":"+middleKey(a, p))
	}
	return out
}

func TestBuildEmptyTraining(t *testing.T) {
	o, _, a, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	set := build(ix, o, "GO:2", nil, df, maxSignificant)
	if len(set.Patterns) != 0 {
		t.Fatalf("patterns from empty training: %v", middleKeys(a, set))
	}
	set = build(ix, o, "GO:404", []corpus.PaperID{0}, df, maxSignificant)
	if len(set.Patterns) != 0 {
		t.Fatal("patterns for unknown term")
	}
}

func TestMiddleTypeScoreOrdering(t *testing.T) {
	// Verify the middle-type criterion directly: both > term-only > freq-only.
	o, _, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	ctxSet := phrase(ix, "zinc")
	mk := func(hasTerm, hasFreq bool) float64 {
		p := &Pattern{Middle: phrase(ix, "zinc"), HasTermWords: hasTerm, HasFreqWords: hasFreq}
		// Fix the other criteria: same middle, same frequencies.
		return regularScore(p, ix, ctxSet, df, 2, 1, 1)
	}
	both := mk(true, true)
	termOnly := mk(true, false)
	freqOnly := mk(false, true)
	if !(both > termOnly && termOnly > freqOnly) {
		t.Fatalf("middle type ordering violated: both=%v term=%v freq=%v", both, termOnly, freqOnly)
	}
}

func TestPaperCoveragePenalisesCommonMiddles(t *testing.T) {
	o, _, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	// "zinc" (2 docs) vs a word in all docs would score lower coverage-wise.
	rare := phrase(ix, "corrosion") // 1 doc
	common := phrase(ix, "cells")   // 2 docs
	pRare := &Pattern{Middle: rare, HasFreqWords: true}
	pCommon := &Pattern{Middle: common, HasFreqWords: true}
	sRare := regularScore(pRare, ix, nil, df, 2, 1, 1)
	sCommon := regularScore(pCommon, ix, nil, df, 2, 1, 1)
	if sRare <= sCommon {
		t.Fatalf("coverage penalty inverted: rare=%v common=%v", sRare, sCommon)
	}
}

func TestExtendedPatterns(t *testing.T) {
	// Two regular patterns arranged to trigger both join types, over IDs
	// numbered in word order.
	const alpha, beta, gamma, l1, r2, shared = 1, 2, 3, 4, 5, 6
	p1 := &Pattern{
		Kind:   Regular,
		Left:   []int32{l1},
		Middle: []int32{alpha, beta},
		Right:  []int32{shared},
		Score:  2,
	}
	p2 := &Pattern{
		Kind:   Regular,
		Left:   []int32{alpha, shared},
		Middle: []int32{gamma},
		Right:  []int32{r2},
		Score:  3,
	}
	ext := buildExtended([]*Pattern{p1, p2})
	var side, middle *Pattern
	for _, p := range ext {
		switch p.Kind {
		case SideJoined:
			side = p
		case MiddleJoined:
			middle = p
		}
	}
	if side == nil {
		t.Fatal("side-joined pattern not built")
	}
	if !slices.Equal(side.Middle, []int32{alpha, beta, gamma}) {
		t.Fatalf("side-joined middle = %v", side.Middle)
	}
	if side.Score != 25 { // (2+3)²
		t.Fatalf("side-joined score = %v, want 25", side.Score)
	}
	if middle == nil {
		t.Fatal("middle-joined pattern not built")
	}
	// p1's middle {alpha,beta}: alpha ∈ p2.Left → DOO1 = 1/2.
	if middle.DOO1 != 0.5 {
		t.Fatalf("DOO1 = %v, want 0.5", middle.DOO1)
	}
	// p2's middle {gamma}: not in p1's tuples → DOO2 = 0.
	if middle.DOO2 != 0 {
		t.Fatalf("DOO2 = %v, want 0", middle.DOO2)
	}
	// Score = 0.5·2 + 0·3 = 1.
	if middle.Score != 1 {
		t.Fatalf("middle-joined score = %v, want 1", middle.Score)
	}
}

func TestDegreeOfOverlap(t *testing.T) {
	if got := degreeOfOverlap(nil, nil, nil); got != 0 {
		t.Fatalf("empty middle DOO = %v", got)
	}
	got := degreeOfOverlap([]int32{1, 2}, []int32{1}, []int32{2})
	if got != 1 {
		t.Fatalf("full overlap DOO = %v", got)
	}
}

func TestTermWordDF(t *testing.T) {
	o, _, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	// "binding" stems appear in one term name ("zinc finger binding").
	bind := phrase(ix, "binding")[0]
	if df[bind] != 1 {
		t.Fatalf("df[bind] = %d", df[bind])
	}
	// "transport" appears in "calcium transport" only.
	tr := phrase(ix, "transport")[0]
	if df[tr] != 1 {
		t.Fatalf("df[transport] = %d", df[tr])
	}
	// "function" ("molecular function") occurs in no paper, so it has no
	// term ID and no count: a pattern middle is always a phrase of the text.
	if fn := phrase(ix, "function")[0]; fn >= 0 {
		t.Fatalf("function has term ID %d", fn)
	}
}

// TestRegularTuplesExactSize: a memo keeps its sets for the life of the
// process, so every regular pattern of every evidence term at 800/160 holds
// its left and right tuples at their size, not in the window buffers they
// were collected in. The extended patterns' tuples are a regular pattern's
// or a union copied out at its size, so every pattern is checked. The memo
// hands out one set per term.
func TestRegularTuplesExactSize(t *testing.T) {
	o, err := ontology.Generate(ontology.GenConfig{Seed: 1, NumTerms: 160, MaxDepth: 9, SecondParentProb: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Generate(o, corpus.DefaultGenConfig(800))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(NewPosIndex(corpus.NewAnalyzerWorkers(c, 0)), o)
	regular := 0
	for _, term := range c.EvidenceTerms() {
		set := m.Set(term)
		if m.Set(term) != set {
			t.Fatalf("%s: the memo built a second set", term)
		}
		for _, p := range set.Patterns {
			if p.Kind == Regular {
				regular++
			}
			if cap(p.Left) != len(p.Left) || cap(p.Right) != len(p.Right) {
				t.Fatalf("%s: %s tuples of %d and %d words hold %d and %d", term, p.Kind, len(p.Left), len(p.Right), cap(p.Left), cap(p.Right))
			}
		}
	}
	if regular == 0 {
		t.Fatal("no regular pattern built")
	}
}
