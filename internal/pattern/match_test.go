package pattern

import (
	"slices"
	"testing"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
)

// scorePapers returns ScorePapers' scores of every paper of the corpus.
func scorePapers(s *Set, ix *PosIndex, within bitset.Set) []float64 {
	dst := make([]float64, ix.Analyzer().Corpus().Len())
	s.ScorePapers(ix, within, false, dst)
	return dst
}

func TestScorePapersRankTrainingAndMentions(t *testing.T) {
	o, c, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	set := build(ix, o, "GO:2", c.EvidencePapers("GO:2"), df, maxSignificant)
	scores := scorePapers(set, ix, nil)
	// Papers 0–2 mention "zinc finger binding"; 3–4 do not.
	for _, id := range []corpus.PaperID{0, 1, 2} {
		if scores[id] <= 0 {
			t.Fatalf("paper %d should match patterns: %v", id, scores)
		}
	}
	if scores[4] != 0 {
		t.Fatalf("metallurgy paper matched: %v", scores[4])
	}
	// The metallurgy-free distractor about calcium may pick up weak matches
	// via shared frequent words, but must score below the training papers.
	if scores[3] >= scores[0] {
		t.Fatalf("distractor outranked training paper: %v", scores)
	}
}

func TestScorePapersWithin(t *testing.T) {
	o, c, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	set := build(ix, o, "GO:2", c.EvidencePapers("GO:2"), df, maxSignificant)
	scores := scorePapers(set, ix, papers(1))
	for id, s := range scores {
		if s != 0 && id != 1 {
			t.Fatalf("score outside within set: %v", scores)
		}
	}
}

func TestScorePapersMiddleOnly(t *testing.T) {
	o, c, _, ix := patternFixture(t)
	df := TermWordDF(o, ix)
	set := build(ix, o, "GO:2", c.EvidencePapers("GO:2"), df, maxSignificant)
	full := scorePapers(set, ix, nil)
	simple := make([]float64, c.Len())
	set.ScorePapers(ix, nil, true, simple)
	// The extended patterns are skipped: the regular ones alone score the
	// same bits.
	regular := &Set{Patterns: slices.DeleteFunc(slices.Clone(set.Patterns), func(p *Pattern) bool { return p.Kind != Regular })}
	if len(regular.Patterns) == len(set.Patterns) {
		t.Fatal("the fixture's set holds no extended pattern")
	}
	alone := make([]float64, c.Len())
	regular.ScorePapers(ix, nil, true, alone)
	if !slices.Equal(simple, alone) {
		t.Fatalf("middle-only scores %v, the regular patterns alone %v", simple, alone)
	}
	// Simplified matching must still find the training papers.
	if simple[0] <= 0 || simple[1] <= 0 {
		t.Fatalf("simplified matching lost training papers: %v", simple)
	}
	// And it must not use extended patterns: scores come from regular
	// patterns only, so they can only be ≤ the full score whenever the full
	// config found the same regular matches plus extras.
	for id, s := range simple {
		if s > full[id]+1e-9 {
			// Possible only if window corroboration reduced full strength;
			// the 0.7 floor keeps regular matches cheaper in middle-only
			// mode impossible to exceed by more than 1/0.7.
			if s > full[id]/0.7+1e-9 {
				t.Fatalf("middle-only score exceeds plausible bound for %d: %v > %v", id, s, full[id])
			}
		}
	}
}

func TestSectionWeightsInfluenceStrength(t *testing.T) {
	// A pattern matching only in the body must score lower than the same
	// match in a title.
	papers := []*corpus.Paper{
		{ID: 0, Title: "zinc finger", Abstract: "x", Body: "y", Authors: []string{"a"}},
		{ID: 1, Title: "other work", Abstract: "x", Body: "zinc finger", Authors: []string{"b"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewPosIndex(corpus.NewAnalyzerWorkers(c, 0))
	mid := phrase(ix, "zinc finger")
	set := &Set{Patterns: []*Pattern{{Kind: Regular, Middle: mid, Score: 1}}}
	scores := scorePapers(set, ix, nil)
	if scores[0] <= scores[1] {
		t.Fatalf("title match must outweigh body match: %v", scores)
	}
}

func TestMatchSetFractionThreshold(t *testing.T) {
	papers := []*corpus.Paper{
		{ID: 0, Title: "alpha beta gamma", Abstract: "x", Body: "y", Authors: []string{"a"}},
		{ID: 1, Title: "alpha only here", Abstract: "x", Body: "y", Authors: []string{"b"}},
	}
	c, err := corpus.NewCorpus(papers)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewPosIndex(corpus.NewAnalyzerWorkers(c, 0))
	set := &Set{Patterns: []*Pattern{{
		Kind:   MiddleJoined,
		Middle: sortedSet(phrase(ix, "alpha beta gamma")),
		Score:  1,
	}}}
	scores := scorePapers(set, ix, nil)
	if scores[0] <= 0 {
		t.Fatalf("full set presence must match: %v", scores)
	}
	// Paper 1 has 1/3 < MinSetFraction 0.5 → no match.
	if scores[1] != 0 {
		t.Fatalf("sub-threshold set matched: %v", scores)
	}
}

func TestContextOverlap(t *testing.T) {
	if got := contextOverlap(nil, nil, nil, nil); got != 0 {
		t.Fatalf("empty window overlap = %v", got)
	}
	got := contextOverlap([]int32{1, 9}, []int32{2}, papers(1), papers(2))
	if got != 2.0/3 {
		t.Fatalf("overlap = %v, want 2/3", got)
	}
}

func TestKindString(t *testing.T) {
	if Regular.String() != "regular" || SideJoined.String() != "side-joined" || MiddleJoined.String() != "middle-joined" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}
