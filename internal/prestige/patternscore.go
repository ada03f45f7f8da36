package prestige

import (
	"sync"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// PatternScorer implements the pattern-based prestige function of §3.3:
// context patterns (regular + extended) are built from the context's
// training papers, and a paper's prestige is Σ Score(pt)·M(P, pt) over the
// patterns matching it, max-normalised per context.
type PatternScorer struct {
	ix     *pattern.PosIndex
	onto   *ontology.Ontology
	termDF []int32
	pcfg   pattern.Config
	mcfg   pattern.MatchConfig

	// sets caches the pattern set per term, since inherited contexts reuse
	// their origin's patterns; mu makes the cache safe for parallel
	// scoring.
	mu   sync.Mutex
	sets map[ontology.TermID]*pattern.Set
}

// NewPatternScorer builds the scorer. The pattern config's Extended flag is
// honoured (the full §3.3 method uses extended patterns; the §4 simplified
// construction does not — that variant lives in contextset).
func NewPatternScorer(ix *pattern.PosIndex, onto *ontology.Ontology, pcfg pattern.Config, mcfg pattern.MatchConfig) *PatternScorer {
	return &PatternScorer{
		ix:     ix,
		onto:   onto,
		termDF: pattern.TermWordDF(onto, ix),
		pcfg:   pcfg,
		mcfg:   mcfg,
		sets:   make(map[ontology.TermID]*pattern.Set),
	}
}

// Name implements Scorer.
func (s *PatternScorer) Name() string { return "pattern" }

// patternsFor returns (building and caching on demand) the pattern set of a
// term, built from the term's annotation evidence papers.
func (s *PatternScorer) patternsFor(c *corpus.Corpus, term ontology.TermID) *pattern.Set {
	s.mu.Lock()
	if set, ok := s.sets[term]; ok {
		s.mu.Unlock()
		return set
	}
	s.mu.Unlock()
	// Build outside the lock: construction is the expensive part and two
	// goroutines occasionally building the same term's set is harmless
	// (identical, deterministic results).
	set := pattern.Build(s.ix, s.onto, term, c.EvidencePapers(term), s.termDF, s.pcfg)
	s.mu.Lock()
	if prev, ok := s.sets[term]; ok {
		set = prev
	} else {
		s.sets[term] = set
	}
	s.mu.Unlock()
	return set
}

// ScoreContext implements Scorer. Contexts that inherited their papers from
// an ancestor are scored with the ancestor's patterns (the decay multiplier
// is applied by Score). Papers no pattern matches score 0.
func (s *PatternScorer) ScoreContext(cs *contextset.ContextSet, ctx ontology.TermID, vals []float64) bool {
	c := s.ix.Analyzer().Corpus()
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
	scores := make([]float64, c.Len())
	s.patternsFor(c, term).ScorePapers(s.ix, within, s.mcfg, scores)
	for i, p := range members {
		vals[i] = scores[p]
	}
	maxNormalize(vals)
	return true
}
