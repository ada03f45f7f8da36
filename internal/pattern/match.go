package pattern

import (
	"ctxsearch/internal/bitset"
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

// ScorePapers adds the pattern-based paper score
//
//	Score(P) = Σ_{pt ∈ Ptr(P)} Score(pt) · M(P, pt)
//
// of every paper in within (nil = the whole corpus) to dst, indexed by
// PaperID and as long as the corpus; papers no pattern matches are left
// alone. M(P, pt) combines the weight of the best section containing a
// match with the similarity between the pattern and the matching phrase:
// exact middle matches of regular/side-joined patterns weigh the match fully
// and add a bonus for left/right context corroboration; middle-joined
// (unordered) patterns weigh by the fraction of their word set present. A
// paper's terms are added in pattern order. Scores are raw — callers
// normalise per context. Unset fields of cfg take DefaultMatchConfig's
// values.
func (s *Set) ScorePapers(ix *PosIndex, within bitset.Set, cfg MatchConfig, dst []float64) {
	def := DefaultMatchConfig()
	if cfg.SectionWeights == nil {
		cfg.SectionWeights = def.SectionWeights
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.MinSetFraction <= 0 {
		cfg.MinSetFraction = def.MinSetFraction
	}
	var weights [corpus.NumSections]float64
	for _, sec := range corpus.Sections {
		weights[sec] = cfg.SectionWeights[sec]
	}
	var occs []Occurrence
	var tuples tupleBits
	for _, p := range s.Patterns {
		switch p.Kind {
		case Regular, SideJoined:
			if cfg.MiddleOnly && p.Kind != Regular {
				continue
			}
			occs = ix.PhraseOccurrences(p.Middle, within, occs[:0])
			if len(occs) == 0 {
				continue
			}
			tuples.mark(p)
			matchSequential(ix, p, occs, cfg, &weights, &tuples, dst)
			tuples.clear(p)
		case MiddleJoined:
			if cfg.MiddleOnly {
				continue
			}
			matchSet(ix, p, within, cfg, &weights, dst)
		}
	}
}

// matchSequential scores the exact contiguous middle-tuple matches occs,
// in (doc, position) order, by the best occurrence of each paper.
func matchSequential(ix *PosIndex, p *Pattern, occs []Occurrence, cfg MatchConfig, weights *[corpus.NumSections]float64, tuples *tupleBits, dst []float64) {
	for lo := 0; lo < len(occs); {
		doc := occs[lo].Doc
		best := 0.0
		hi := lo
		for ; hi < len(occs) && occs[hi].Doc == doc; hi++ {
			oc := occs[hi]
			w := weights[oc.Section]
			if w == 0 {
				continue
			}
			strength := w
			if !cfg.MiddleOnly {
				// Corroborate with the surrounding window: the more of the
				// observed neighbourhood appears in the pattern's
				// left/right tuples, the stronger the match.
				l, r := ix.Window(doc, oc.Pos, len(p.Middle), cfg.Window)
				strength = w * (0.7 + float64(0.3*contextOverlap(l, r, tuples.left, tuples.right)))
			}
			if strength > best {
				best = strength
			}
		}
		if best > 0 {
			dst[doc] += float64(p.Score * best)
		}
		lo = hi
	}
}

// matchSet handles middle-joined patterns whose middle is an unordered word
// set: a document matches when at least MinSetFraction of the set is
// present; strength scales with the fraction present and the best section
// weight among the present words. The middle words' runs are merged by
// document.
func matchSet(ix *PosIndex, p *Pattern, within bitset.Set, cfg MatchConfig, weights *[corpus.NumSections]float64, dst []float64) {
	runs := make([][]posting, len(p.Middle))
	for i, id := range p.Middle {
		runs[i] = ix.run(id)
	}
	need := float64(len(p.Middle)) * cfg.MinSetFraction
	for {
		doc := int32(-1)
		for _, r := range runs {
			if len(r) > 0 && (doc < 0 || r[0].doc < doc) {
				doc = r[0].doc
			}
		}
		if doc < 0 {
			return
		}
		in := within == nil || within.Contains(int(doc))
		var toks *corpus.Tokens
		if in {
			toks = ix.analyzer.Tokens(corpus.PaperID(doc))
		}
		present, bestSec := 0, 0.0
		for i, r := range runs {
			j := 0
			for ; j < len(r) && r[j].doc == doc; j++ {
				if in {
					sec, _, _ := section(toks, r[j].pos)
					if sw := weights[sec]; sw > bestSec {
						bestSec = sw
					}
				}
			}
			if j > 0 {
				present++
				runs[i] = r[j:]
			}
		}
		f := float64(present) / float64(len(p.Middle))
		if in && float64(present) >= need && bestSec > 0 {
			dst[doc] += float64(p.Score * bestSec * f)
		}
	}
}

// tupleBits holds the left/right tuples of the pattern being matched as
// bitmaps over term IDs, so corroborating a window costs one bit probe per
// word rather than a binary search of the sorted sets.
type tupleBits struct{ left, right bitset.Set }

// mark sets p's tuples.
func (t *tupleBits) mark(p *Pattern) {
	for _, w := range p.Left {
		t.left.Add(int(w))
	}
	for _, w := range p.Right {
		t.right.Add(int(w))
	}
}

// clear empties the bitmaps after mark(p).
func (t *tupleBits) clear(p *Pattern) {
	for _, w := range p.Left {
		t.left[w>>6] = 0
	}
	for _, w := range p.Right {
		t.right[w>>6] = 0
	}
}

// contextOverlap measures how much of the observed window around a match is
// corroborated by the pattern's left/right tuples, in [0,1].
func contextOverlap(l, r []int32, left, right bitset.Set) float64 {
	total := len(l) + len(r)
	if total == 0 {
		return 0
	}
	n := 0
	for _, w := range l {
		if left.Contains(int(w)) {
			n++
		}
	}
	for _, w := range r {
		if right.Contains(int(w)) {
			n++
		}
	}
	return float64(n) / float64(total)
}
