package pattern

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// Kind distinguishes regular patterns from the two extended kinds of [4].
type Kind int

// Pattern kinds.
const (
	Regular Kind = iota
	SideJoined
	MiddleJoined
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Regular:
		return "regular"
	case SideJoined:
		return "side-joined"
	case MiddleJoined:
		return "middle-joined"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Pattern is a ⟨left, middle, right⟩ textual pattern over term IDs. Left
// and Right are word *sets* (sorted, distinct) observed around the middle
// tuple in training papers; Middle is a word *sequence* for regular and
// side-joined patterns and an unordered word set (stored sorted) for
// middle-joined patterns.
type Pattern struct {
	Kind   Kind
	Left   []int32
	Middle []int32
	Right  []int32

	// Middle-tuple composition, which drives MiddleTypeScore: whether the
	// middle contains context-term words and/or mined frequent-phrase words.
	HasTermWords bool
	HasFreqWords bool

	// Score is the pattern's confidence that it represents the context
	// (§3.3), already combining the middle-type, term-selectivity,
	// paper-coverage and training-frequency criteria.
	Score float64

	// DOO1 and DOO2 record the degrees of overlap for middle-joined
	// patterns (zero otherwise).
	DOO1, DOO2 float64
}

// Set is the pattern set constructed for one context.
type Set struct {
	Term     ontology.TermID
	Patterns []*Pattern
}

// The settings of pattern construction (§3.3).
const (
	// minSupport is the mining support threshold over training papers, and
	// maxPhraseLen caps mined phrase length.
	minSupport   = 2
	maxPhraseLen = 3
	// window is the number of words on each side of a middle occurrence:
	// collected into the left/right tuples, and compared with them when a
	// match is corroborated.
	window = 4
	// maxSignificant caps the number of significant terms, and so of
	// regular patterns, per context.
	maxSignificant = 12
	// coverageExp is the PaperCoverage exponent t of RegularPatternScore,
	// and freqCoef the coefficient c of BaseScore's training-frequency term.
	coverageExp = 0.35
	freqCoef    = 0.5
)

// TermWordDF counts, for every dictionary term, the number of ontology
// terms whose name contains it, indexed by term ID. The inverse is the
// word's selectivity (§3.3 criterion 2).
func TermWordDF(onto *ontology.Ontology, ix *PosIndex) []int32 {
	df := make([]int32, len(ix.off)-1)
	// counted[w] is 1 + the index of the last name that counted w.
	counted := make([]int, len(df))
	for i, id := range onto.TermIDs() {
		for _, w := range ix.nameIDs(onto.Term(id).Name) {
			if w >= 0 && counted[w] != i+1 {
				counted[w] = i + 1
				df[w]++
			}
		}
	}
	return df
}

// Memo builds each term's pattern set once, from the term's evidence papers,
// on the first request: the §3.3 scorer matches all of it and the §4
// pattern-based context set its regular patterns. Safe for concurrent use;
// a request for a set another goroutine is building waits for it.
type Memo struct {
	ix     *PosIndex
	onto   *ontology.Ontology
	termDF []int32
	sets   sync.Map // ontology.TermID → func() *Set, a sync.OnceValue
}

// NewMemo returns an empty memo of pattern sets over ix.
func NewMemo(ix *PosIndex, onto *ontology.Ontology) *Memo {
	return &Memo{ix: ix, onto: onto, termDF: TermWordDF(onto, ix)}
}

// Index returns the positional index the sets are built over.
func (m *Memo) Index() *PosIndex { return m.ix }

// Set returns term's pattern set, building it on the first request.
func (m *Memo) Set(term ontology.TermID) *Set {
	f, _ := m.sets.LoadOrStore(term, sync.OnceValue(func() *Set {
		return build(m.ix, m.onto, term, m.ix.analyzer.Corpus().EvidencePapers(term), m.termDF, maxSignificant)
	}))
	return f.(func() *Set)()
}

// build constructs the scored pattern set for one context term from its
// training (annotation evidence) papers, with at most maxSig significant
// terms: regular patterns and the side- and middle-joined patterns derived
// from them. Returns an empty set when the term has no training papers or
// none of the significant terms occur in them.
func build(ix *PosIndex, onto *ontology.Ontology, term ontology.TermID, training []corpus.PaperID, termWordDF []int32, maxSig int) *Set {
	set := &Set{Term: term}
	if len(training) == 0 || onto.Term(term) == nil {
		return set
	}
	ctxWords := ix.nameIDs(onto.Term(term).Name)
	trainSet := bitset.New(ix.analyzer.Corpus().Len())
	for _, d := range training {
		trainSet.Add(int(d))
	}

	// Significant terms, source (i): contiguous subsequences of the context
	// term words (the full name first, then shorter suffix/prefix runs).
	var significant [][]int32
	addSig := func(words []int32) {
		if len(words) == 0 || len(significant) >= maxSig {
			return
		}
		if !slices.ContainsFunc(significant, func(sig []int32) bool { return slices.Equal(sig, words) }) {
			significant = append(significant, words)
		}
	}
	for n := len(ctxWords); n >= 1; n-- {
		for i := 0; i+n <= len(ctxWords); i++ {
			addSig(ctxWords[i : i+n])
		}
	}

	// Source (ii): frequent phrases mined from the training papers,
	// combined apriori-style. Skip pure context-word phrases already added.
	minSup := min(minSupport, len(training))
	mined := MineFrequentPhrases(ix, training, minSup)
	for _, fp := range mined {
		if len(significant) >= maxSig {
			break
		}
		addSig(fp.Words)
	}

	// Build one regular pattern per significant term that actually occurs
	// in the training papers.
	var occs []Occurrence
	var left, right []int32
	for _, sig := range significant {
		occs = ix.PhraseOccurrences(sig, trainSet, occs[:0])
		if len(occs) == 0 {
			continue
		}
		left, right = left[:0], right[:0]
		docs := 0
		for i, oc := range occs {
			if i == 0 || oc.Doc != occs[i-1].Doc {
				docs++
			}
			l, r := ix.Window(oc.Doc, oc.Pos, len(sig), window)
			left = append(left, l...)
			right = append(right, r...)
		}
		// Copied out at their size: a memoised set keeps no window buffer.
		p := &Pattern{
			Kind:   Regular,
			Left:   exactCopy(sortedSet(left)),
			Middle: slices.Clone(sig),
			Right:  exactCopy(sortedSet(right)),
		}
		for _, w := range sig {
			if slices.Contains(ctxWords, w) {
				p.HasTermWords = true
			} else {
				p.HasFreqWords = true
			}
		}
		p.Score = regularScore(p, ix, ctxWords, termWordDF, len(training), docs, len(occs))
		set.Patterns = append(set.Patterns, p)
	}

	set.Patterns = append(set.Patterns, buildExtended(set.Patterns)...)
	// Deterministic order: by descending score, then middle tuple. Regular
	// middles are distinct, so the regular patterns keep one order.
	sort.Slice(set.Patterns, func(i, j int) bool {
		if set.Patterns[i].Score != set.Patterns[j].Score {
			return set.Patterns[i].Score > set.Patterns[j].Score
		}
		return slices.Compare(set.Patterns[i].Middle, set.Patterns[j].Middle) < 0
	})
	return set
}

// regularScore implements RegularPatternScore (§3.3):
//
//	BaseScore = MiddleTypeScore + TotalTermScore + c·(PatternOccFreq + PatternPaperFreq)
//	RegularPatternScore = BaseScore · (1/PaperCoverage)^t
func regularScore(p *Pattern, ix *PosIndex, ctxWords, termWordDF []int32, nTraining, paperFreq, occFreq int) float64 {
	// (1) Middle tuples of only frequent terms, only context-term words, or
	// both receive high, higher, highest.
	var middleType float64
	switch {
	case p.HasTermWords && p.HasFreqWords:
		middleType = 3
	case p.HasTermWords:
		middleType = 2
	default:
		middleType = 1
	}
	// (2) Selectivity: rare context-term words score higher.
	var termScore float64
	for _, w := range p.Middle {
		if slices.Contains(ctxWords, w) {
			if df := wordDF(termWordDF, w); df > 0 {
				termScore += 1 / float64(df)
			} else {
				termScore += 1
			}
		}
	}
	// (3) PaperCoverage: middle-tuple document frequency across the whole
	// database, as a fraction. Rare middles are more context-identifying.
	n := ix.analyzer.Corpus().Len()
	df := ix.DocFreqOfPhrase(p.Middle)
	if df < 1 {
		df = 1
	}
	coverage := float64(df) / float64(n)
	// (4) Training-paper frequency, as fractions of the training set so the
	// scale is stable across contexts of different training sizes.
	freqTerm := float64(freqCoef * (float64(occFreq)/float64(nTraining) + float64(paperFreq)/float64(nTraining)))

	base := middleType + termScore + freqTerm
	return base * math.Pow(1/coverage, coverageExp)
}

// wordDF returns df[w], 0 for an ID outside the dictionary.
func wordDF(df []int32, w int32) int32 {
	if w < 0 || int(w) >= len(df) {
		return 0
	}
	return df[w]
}

// buildExtended derives side-joined and middle-joined patterns from every
// ordered pair of regular patterns (§3.3, [4]). A derived middle is kept
// once per kind, the first time a pair derives it.
func buildExtended(regs []*Pattern) []*Pattern {
	var out []*Pattern
	kept := map[string]bool{}
	// seen reports whether a pattern of this kind and middle was derived
	// before, and records it.
	seen := func(kind Kind, mid []int32) bool {
		key := make([]byte, 1, 1+4*len(mid))
		key[0] = byte(kind)
		for _, w := range mid {
			key = binary.LittleEndian.AppendUint32(key, uint32(w))
		}
		if kept[string(key)] {
			return true
		}
		kept[string(key)] = true
		return false
	}
	for i, p1 := range regs {
		for j, p2 := range regs {
			if i == j {
				continue
			}
			// Side-joined: P1's right tuple overlaps P2's left tuple; the
			// middles concatenate through the overlap.
			if setsOverlap(p1.Right, p2.Left) {
				mid := append(slices.Clone(p1.Middle), p2.Middle...)
				if !seen(SideJoined, mid) {
					sc := p1.Score + p2.Score
					out = append(out, &Pattern{
						Kind:         SideJoined,
						Left:         p1.Left,
						Middle:       mid,
						Right:        p2.Right,
						HasTermWords: p1.HasTermWords || p2.HasTermWords,
						HasFreqWords: p1.HasFreqWords || p2.HasFreqWords,
						Score:        sc * sc,
					})
				}
			}
			// Middle-joined: P1's middle overlaps P2's left or right tuple.
			doo1 := degreeOfOverlap(p1.Middle, p2.Left, p2.Right)
			if doo1 > 0 {
				doo2 := degreeOfOverlap(p2.Middle, p1.Left, p1.Right)
				mid := sortedSet(append(slices.Clone(p1.Middle), p2.Middle...))
				if !seen(MiddleJoined, mid) {
					out = append(out, &Pattern{
						Kind:         MiddleJoined,
						Left:         exactCopy(unionSets(p1.Left, p2.Left)),
						Middle:       mid,
						Right:        exactCopy(unionSets(p1.Right, p2.Right)),
						HasTermWords: p1.HasTermWords || p2.HasTermWords,
						HasFreqWords: p1.HasFreqWords || p2.HasFreqWords,
						Score:        float64(doo1*p1.Score) + float64(doo2*p2.Score),
						DOO1:         doo1,
						DOO2:         doo2,
					})
				}
			}
		}
	}
	return out
}

// degreeOfOverlap returns the proportion of middle words contained in the
// other pattern's left/right tuples.
func degreeOfOverlap(middle, left, right []int32) float64 {
	if len(middle) == 0 {
		return 0
	}
	n := 0
	for _, w := range middle {
		if has(left, w) || has(right, w) {
			n++
		}
	}
	return float64(n) / float64(len(middle))
}

// has reports whether the sorted set s holds w.
func has(s []int32, w int32) bool {
	_, ok := slices.BinarySearch(s, w)
	return ok
}

// sortedSet sorts ids and drops repeats, in place.
func sortedSet(ids []int32) []int32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// exactCopy returns a copy of ids whose capacity is its length.
func exactCopy(ids []int32) []int32 { return append(make([]int32, 0, len(ids)), ids...) }

// setsOverlap reports whether two sorted sets share a word.
func setsOverlap(a, b []int32) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// unionSets merges two sorted sets into a new one.
func unionSets(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
