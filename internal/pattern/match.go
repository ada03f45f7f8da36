package pattern

import (
	"ctxsearch/internal/corpus"
)

// MatchConfig configures pattern→paper matching.
type MatchConfig struct {
	// SectionWeights give the match-strength weight of the section
	// containing a match (§3.3: M(P, pt) is influenced by the paper section
	// containing the pattern match). Missing sections weigh 0.
	SectionWeights map[corpus.Section]float64
	// Window is the context window compared against the pattern's
	// left/right tuples.
	Window int
	// MiddleOnly enables the simplified matching of §4 used to build the
	// pattern-based context paper set: only middle tuples are considered
	// and extended patterns are skipped.
	MiddleOnly bool
	// MinSetFraction is the fraction of a middle-joined pattern's word set
	// that must be present in a document for the pattern to match.
	MinSetFraction float64
}

// DefaultMatchConfig returns the match weights used by the experiments:
// title matches are strongest, body matches weakest.
func DefaultMatchConfig() MatchConfig {
	return MatchConfig{
		SectionWeights: map[corpus.Section]float64{
			corpus.SecTitle:      1.0,
			corpus.SecIndexTerms: 0.9,
			corpus.SecAbstract:   0.7,
			corpus.SecBody:       0.4,
		},
		Window:         4,
		MinSetFraction: 0.5,
	}
}

// ScorePapers computes the pattern-based paper score
//
//	Score(P) = Σ_{pt ∈ Ptr(P)} Score(pt) · M(P, pt)
//
// for every paper in `within` (nil = the whole corpus). M(P, pt) combines
// the weight of the best section containing a match with the similarity
// between the pattern and the matching phrase: exact middle matches of
// regular/side-joined patterns weigh the match fully and add a bonus for
// left/right context corroboration; middle-joined (unordered) patterns
// weigh by the fraction of their word set present. Scores are raw —
// callers normalise per context.
func (s *Set) ScorePapers(ix *PosIndex, within map[corpus.PaperID]bool, cfg MatchConfig) map[corpus.PaperID]float64 {
	if cfg.SectionWeights == nil {
		cfg = DefaultMatchConfig()
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.MinSetFraction <= 0 {
		cfg.MinSetFraction = 0.5
	}
	scores := make(map[corpus.PaperID]float64)
	for _, p := range s.Patterns {
		switch p.Kind {
		case Regular, SideJoined:
			if cfg.MiddleOnly && p.Kind != Regular {
				continue
			}
			s.matchSequential(ix, p, within, cfg, scores)
		case MiddleJoined:
			if cfg.MiddleOnly {
				continue
			}
			s.matchSet(ix, p, within, cfg, scores)
		}
	}
	return scores
}

// matchSequential handles exact contiguous middle-tuple matches.
func (s *Set) matchSequential(ix *PosIndex, p *Pattern, within map[corpus.PaperID]bool, cfg MatchConfig, scores map[corpus.PaperID]float64) {
	occs := ix.PhraseOccurrences(p.Middle, within)
	for doc, ds := range occs {
		best := 0.0
		for _, oc := range ds {
			w := cfg.SectionWeights[oc.Section]
			if w == 0 {
				continue
			}
			strength := w
			if !cfg.MiddleOnly {
				// Corroborate with the surrounding window: the more of the
				// observed neighbourhood appears in the pattern's
				// left/right tuples, the stronger the match.
				l, r := ix.Window(doc, oc.Pos, len(p.Middle), cfg.Window)
				strength = w * (0.7 + float64(0.3*contextOverlap(l, r, p.Left, p.Right)))
			}
			if strength > best {
				best = strength
			}
		}
		if best > 0 {
			scores[doc] += float64(p.Score * best)
		}
	}
}

// matchSet handles middle-joined patterns whose middle is an unordered word
// set: a document matches when at least MinSetFraction of the set is
// present; strength scales with the fraction present and the best section
// weight among the present words.
func (s *Set) matchSet(ix *PosIndex, p *Pattern, within map[corpus.PaperID]bool, cfg MatchConfig, scores map[corpus.PaperID]float64) {
	// The accumulator map is pooled on the index (one lease per
	// middle-joined pattern, across all concurrent scoring workers).
	byDoc, _ := ix.setAccPool.Get().(map[corpus.PaperID]setAcc)
	if byDoc == nil {
		byDoc = make(map[corpus.PaperID]setAcc)
	} else {
		clear(byDoc)
	}
	defer ix.setAccPool.Put(byDoc)
	for _, w := range p.Middle {
		for doc, positions := range ix.positions[w] {
			if within != nil && !within[doc] {
				continue
			}
			a := byDoc[doc]
			a.present++
			for _, pos := range positions {
				if sw := cfg.SectionWeights[ix.SectionOf(doc, int(pos))]; sw > a.bestSec {
					a.bestSec = sw
				}
			}
			byDoc[doc] = a
		}
	}
	need := float64(len(p.Middle)) * cfg.MinSetFraction
	for doc, a := range byDoc {
		f := float64(a.present) / float64(len(p.Middle))
		if float64(a.present) >= need && a.bestSec > 0 {
			scores[doc] += float64(p.Score * a.bestSec * f)
		}
	}
}

// setAcc accumulates middle-joined matching state for one document: how
// many of the pattern's words are present and the best section weight seen.
type setAcc struct {
	present int
	bestSec float64
}

// contextOverlap measures how much of the observed window around a match is
// corroborated by the pattern's left/right tuples, in [0,1].
func contextOverlap(l, r []string, left, right map[string]bool) float64 {
	total := len(l) + len(r)
	if total == 0 {
		return 0
	}
	n := 0
	for _, w := range l {
		if left[w] {
			n++
		}
	}
	for _, w := range r {
		if right[w] {
			n++
		}
	}
	return float64(n) / float64(total)
}
