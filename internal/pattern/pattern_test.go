package pattern

import (
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
	return o, c, a, NewPosIndexWorkers(a, 0)
}

func TestBuildPatterns(t *testing.T) {
	o, c, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	set := Build(ix, o, "GO:2", c.EvidencePapers("GO:2"), df, DefaultConfig())
	if len(set.Patterns) == 0 {
		t.Fatal("no patterns built")
	}
	// The full term name must appear as a regular pattern's middle, typed
	// as containing term words.
	foundName := false
	for _, p := range set.Patterns {
		if p.Kind == Regular && strings.Contains(p.MiddleKey(), "zinc") && strings.Contains(p.MiddleKey(), "bind") {
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
		t.Fatalf("term-name pattern missing: %v", middleKeys(set))
	}
	// Scores sorted descending.
	for i := 1; i < len(set.Patterns); i++ {
		if set.Patterns[i].Score > set.Patterns[i-1].Score {
			t.Fatal("patterns not sorted by score")
		}
	}
}

func middleKeys(s *Set) []string {
	var out []string
	for _, p := range s.Patterns {
		out = append(out, p.Kind.String()+":"+p.MiddleKey())
	}
	return out
}

func TestBuildEmptyTraining(t *testing.T) {
	o, _, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	set := Build(ix, o, "GO:2", nil, df, DefaultConfig())
	if len(set.Patterns) != 0 {
		t.Fatalf("patterns from empty training: %v", middleKeys(set))
	}
	set = Build(ix, o, "GO:404", []corpus.PaperID{0}, df, DefaultConfig())
	if len(set.Patterns) != 0 {
		t.Fatal("patterns for unknown term")
	}
}

func TestMiddleTypeScoreOrdering(t *testing.T) {
	// Verify the middle-type criterion directly: both > term-only > freq-only.
	o, _, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	ctxSet := map[string]bool{"zinc": true}
	cfg := DefaultConfig()
	mk := func(hasTerm, hasFreq bool) float64 {
		p := &Pattern{Middle: []string{"zinc"}, HasTermWords: hasTerm, HasFreqWords: hasFreq}
		// Fix the other criteria: same middle, same frequencies.
		return regularScore(p, ix, ctxSet, df, 2, 1, 1, cfg)
	}
	both := mk(true, true)
	termOnly := mk(true, false)
	freqOnly := mk(false, true)
	if !(both > termOnly && termOnly > freqOnly) {
		t.Fatalf("middle type ordering violated: both=%v term=%v freq=%v", both, termOnly, freqOnly)
	}
}

func TestPaperCoveragePenalisesCommonMiddles(t *testing.T) {
	o, _, a, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	cfg := DefaultConfig()
	// "zinc" (2 docs) vs a word in all docs would score lower coverage-wise.
	rare := a.Tokenizer().Terms("corrosion") // 1 doc
	common := a.Tokenizer().Terms("cells")   // 2 docs
	pRare := &Pattern{Middle: rare, HasFreqWords: true}
	pCommon := &Pattern{Middle: common, HasFreqWords: true}
	sRare := regularScore(pRare, ix, map[string]bool{}, df, 2, 1, 1, cfg)
	sCommon := regularScore(pCommon, ix, map[string]bool{}, df, 2, 1, 1, cfg)
	if sRare <= sCommon {
		t.Fatalf("coverage penalty inverted: rare=%v common=%v", sRare, sCommon)
	}
}

func TestExtendedPatterns(t *testing.T) {
	// Two regular patterns arranged to trigger both join types.
	p1 := &Pattern{
		Kind:   Regular,
		Left:   map[string]bool{"l1": true},
		Middle: []string{"alpha", "beta"},
		Right:  map[string]bool{"shared": true},
		Score:  2,
	}
	p2 := &Pattern{
		Kind:   Regular,
		Left:   map[string]bool{"shared": true, "alpha": true},
		Middle: []string{"gamma"},
		Right:  map[string]bool{"r2": true},
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
	if side.MiddleKey() != "alpha beta gamma" {
		t.Fatalf("side-joined middle = %q", side.MiddleKey())
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
	got := degreeOfOverlap([]string{"a", "b"}, map[string]bool{"a": true}, map[string]bool{"b": true})
	if got != 1 {
		t.Fatalf("full overlap DOO = %v", got)
	}
}

func TestTermWordDF(t *testing.T) {
	o, _, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	tok := ix.analyzer.Tokenizer()
	// "binding" stems appear in one term name ("zinc finger binding").
	bind := tok.Terms("binding")[0]
	if df[bind] != 1 {
		t.Fatalf("df[bind] = %d", df[bind])
	}
	// "function" appears in "molecular function" only.
	fn := tok.Terms("function")[0]
	if df[fn] != 1 {
		t.Fatalf("df[function] = %d", df[fn])
	}
}
