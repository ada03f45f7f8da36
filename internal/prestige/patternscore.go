package prestige

import (
	"ctxsearch/internal/bitset"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// PatternScorer implements the pattern-based prestige function of §3.3:
// context patterns (regular + extended) from the memo, which builds them
// from the context's training papers, and a paper's prestige is
// Σ Score(pt)·M(P, pt) over the patterns matching it, max-normalised per
// context.
type PatternScorer struct{ memo *pattern.Memo }

// NewPatternScorer returns the scorer over the memo's pattern sets. It uses
// the full §3.3 method, extended patterns and window corroboration; the §4
// middle-only match is contextset's.
func NewPatternScorer(m *pattern.Memo) *PatternScorer { return &PatternScorer{m} }

// Name implements Scorer.
func (s *PatternScorer) Name() string { return "pattern" }

// ScoreContext implements Scorer. Contexts that inherited their papers from
// an ancestor are scored with the ancestor's patterns (the decay multiplier
// is applied by Score). Papers no pattern matches score 0.
func (s *PatternScorer) ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool {
	ix := s.memo.Index()
	term := ctx
	if origin, inherited := cs.InheritedFrom(ctx); inherited {
		term = origin
	}
	members := cs.Papers(ctx)
	if len(members) == 0 {
		return true
	}
	within := bitset.New(int(members[len(members)-1]) + 1)
	for _, p := range members {
		within.Add(int(p))
	}
	scores := make([]float64, ix.Analyzer().Corpus().Len())
	s.memo.Set(term).ScorePapers(ix, within, false, scores)
	for i, p := range members {
		vals[i] = scores[p]
	}
	maxNormalize(vals)
	return true
}
