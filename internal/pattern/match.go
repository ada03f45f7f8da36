package pattern

import (
	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
)

// sectionWeights give the match-strength weight of the section containing
// a match (§3.3: M(P, pt) is influenced by the paper section containing the
// pattern match): title matches are strongest, body matches weakest.
var sectionWeights = [corpus.NumSections]float64{
	corpus.SecTitle:      1.0,
	corpus.SecIndexTerms: 0.9,
	corpus.SecAbstract:   0.7,
	corpus.SecBody:       0.4,
}

// minSetFraction is the fraction of a middle-joined pattern's word set that
// must be present in a document for the pattern to match.
const minSetFraction = 0.5

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
// (unordered) patterns weigh by the fraction of their word set present.
// middleOnly is the §4 pattern-based context set's match: the regular
// patterns alone, each matched by its middle tuple without corroboration. A
// paper's terms are added in pattern order. Scores are raw — callers
// normalise per context.
func (s *Set) ScorePapers(ix *PosIndex, within bitset.Set, middleOnly bool, dst []float64) {
	var occs []Occurrence
	var tuples tupleBits
	for _, p := range s.Patterns {
		if middleOnly && p.Kind != Regular {
			continue
		}
		switch p.Kind {
		case Regular, SideJoined:
			occs = ix.PhraseOccurrences(p.Middle, within, occs[:0])
			if len(occs) == 0 {
				continue
			}
			tuples.mark(p)
			matchSequential(ix, p, occs, !middleOnly, &tuples, dst)
			tuples.clear(p)
		case MiddleJoined:
			matchSet(ix, p, within, dst)
		}
	}
}

// matchSequential scores the exact contiguous middle-tuple matches occs,
// in (doc, position) order, by the best occurrence of each paper,
// corroborating each with its window when corroborate is set.
func matchSequential(ix *PosIndex, p *Pattern, occs []Occurrence, corroborate bool, tuples *tupleBits, dst []float64) {
	for lo := 0; lo < len(occs); {
		doc := occs[lo].Doc
		best := 0.0
		hi := lo
		for ; hi < len(occs) && occs[hi].Doc == doc; hi++ {
			oc := occs[hi]
			w := sectionWeights[oc.Section]
			if w == 0 {
				continue
			}
			strength := w
			if corroborate {
				// Corroborate with the surrounding window: the more of the
				// observed neighbourhood appears in the pattern's
				// left/right tuples, the stronger the match.
				l, r := ix.Window(doc, oc.Pos, len(p.Middle), window)
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
// set: a document matches when at least minSetFraction of the set is
// present; strength scales with the fraction present and the best section
// weight among the present words. The middle words' runs are merged by
// document.
func matchSet(ix *PosIndex, p *Pattern, within bitset.Set, dst []float64) {
	runs := make([][]posting, len(p.Middle))
	for i, id := range p.Middle {
		runs[i] = ix.run(id)
	}
	need := float64(len(p.Middle)) * minSetFraction
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
					if sw := sectionWeights[sec]; sw > bestSec {
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
