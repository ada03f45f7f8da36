package pattern

import (
	"fmt"
	"math"
	"sort"
	"strings"

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

// Pattern is a ⟨left, middle, right⟩ textual pattern. Left and Right are
// word *sets* observed around the middle tuple in training papers; Middle is
// a word *sequence* for regular and side-joined patterns and an unordered
// word set (stored as a sorted sequence) for middle-joined patterns.
type Pattern struct {
	Kind   Kind
	Left   map[string]bool
	Middle []string
	Right  map[string]bool

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

// MiddleKey returns the canonical space-joined middle tuple.
func (p *Pattern) MiddleKey() string { return strings.Join(p.Middle, " ") }

// Set is the pattern set constructed for one context.
type Set struct {
	Term     ontology.TermID
	Patterns []*Pattern
}

// Config configures pattern construction and scoring.
type Config struct {
	// MinSupport is the mining support threshold over training papers.
	MinSupport int
	// MaxPhraseLen caps mined phrase length.
	MaxPhraseLen int
	// Window is the number of words collected on each side of a middle
	// occurrence into the left/right tuples.
	Window int
	// MaxSignificant caps the number of significant terms (and hence
	// regular patterns) per context.
	MaxSignificant int
	// T is the PaperCoverage exponent of RegularPatternScore.
	T float64
	// C is the coefficient of the training-frequency term of BaseScore.
	C float64
	// Extended enables construction of side- and middle-joined patterns.
	Extended bool
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		MinSupport:     2,
		MaxPhraseLen:   3,
		Window:         4,
		MaxSignificant: 12,
		T:              0.35,
		C:              0.5,
		Extended:       true,
	}
}

// TermWordDF counts, for every stemmed word appearing in any ontology term
// name, the number of terms whose name contains it. The inverse is the
// word's selectivity (§3.3 criterion 2).
func TermWordDF(onto *ontology.Ontology, ix *PosIndex) map[string]int {
	df := make(map[string]int)
	tok := ix.analyzer.Tokenizer()
	for _, id := range onto.TermIDs() {
		seen := map[string]bool{}
		for _, w := range tok.Terms(onto.Term(id).Name) {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	return df
}

// Build constructs the scored pattern set for one context term from its
// training (annotation evidence) papers. Returns an empty set when the term
// has no training papers or none of the significant terms occur in them.
func Build(ix *PosIndex, onto *ontology.Ontology, term ontology.TermID, training []corpus.PaperID, termWordDF map[string]int, cfg Config) *Set {
	set := &Set{Term: term}
	if len(training) == 0 || onto.Term(term) == nil {
		return set
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.MaxSignificant <= 0 {
		cfg.MaxSignificant = 12
	}
	tok := ix.analyzer.Tokenizer()
	ctxWords := tok.Terms(onto.Term(term).Name)
	ctxSet := make(map[string]bool, len(ctxWords))
	for _, w := range ctxWords {
		ctxSet[w] = true
	}
	trainSet := make(map[corpus.PaperID]bool, len(training))
	for _, d := range training {
		trainSet[d] = true
	}

	// Significant terms, source (i): contiguous subsequences of the context
	// term words (the full name first, then shorter suffix/prefix runs).
	var significant [][]string
	seenSig := map[string]bool{}
	addSig := func(words []string) {
		if len(words) == 0 || len(significant) >= cfg.MaxSignificant {
			return
		}
		key := strings.Join(words, " ")
		if !seenSig[key] {
			seenSig[key] = true
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
	minSup := cfg.MinSupport
	if minSup > len(training) {
		minSup = len(training)
	}
	mined := MineFrequentPhrases(ix, training, MineConfig{MinSupport: minSup, MaxLen: cfg.MaxPhraseLen})
	for _, fp := range mined {
		if len(significant) >= cfg.MaxSignificant {
			break
		}
		addSig(fp.Words)
	}

	// Build one regular pattern per significant term that actually occurs
	// in the training papers.
	for _, sig := range significant {
		occs := ix.PhraseOccurrences(sig, trainSet)
		if len(occs) == 0 {
			continue
		}
		left := map[string]bool{}
		right := map[string]bool{}
		totalOcc := 0
		for _, ds := range occs {
			totalOcc += len(ds)
			for _, oc := range ds {
				l, r := ix.Window(oc.Doc, oc.Pos, len(sig), cfg.Window)
				for _, w := range l {
					left[w] = true
				}
				for _, w := range r {
					right[w] = true
				}
			}
		}
		p := &Pattern{
			Kind:   Regular,
			Left:   left,
			Middle: append([]string(nil), sig...),
			Right:  right,
		}
		for _, w := range sig {
			if ctxSet[w] {
				p.HasTermWords = true
			} else {
				p.HasFreqWords = true
			}
		}
		p.Score = regularScore(p, ix, ctxSet, termWordDF, len(training), len(occs), totalOcc, cfg)
		set.Patterns = append(set.Patterns, p)
	}

	if cfg.Extended {
		set.Patterns = append(set.Patterns, buildExtended(set.Patterns)...)
	}
	// Deterministic order: by descending score, then middle key.
	sort.Slice(set.Patterns, func(i, j int) bool {
		if set.Patterns[i].Score != set.Patterns[j].Score {
			return set.Patterns[i].Score > set.Patterns[j].Score
		}
		return set.Patterns[i].MiddleKey() < set.Patterns[j].MiddleKey()
	})
	return set
}

// regularScore implements RegularPatternScore (§3.3):
//
//	BaseScore = MiddleTypeScore + TotalTermScore + c·(PatternOccFreq + PatternPaperFreq)
//	RegularPatternScore = BaseScore · (1/PaperCoverage)^t
func regularScore(p *Pattern, ix *PosIndex, ctxSet map[string]bool, termWordDF map[string]int, nTraining, paperFreq, occFreq int, cfg Config) float64 {
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
		if ctxSet[w] {
			if df := termWordDF[w]; df > 0 {
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
	freqTerm := float64(cfg.C * (float64(occFreq)/float64(nTraining) + float64(paperFreq)/float64(nTraining)))

	base := middleType + termScore + freqTerm
	return base * math.Pow(1/coverage, cfg.T)
}

// buildExtended derives side-joined and middle-joined patterns from every
// ordered pair of regular patterns (§3.3, [4]).
func buildExtended(regs []*Pattern) []*Pattern {
	var out []*Pattern
	seen := map[string]bool{}
	for i, p1 := range regs {
		for j, p2 := range regs {
			if i == j {
				continue
			}
			// Side-joined: P1's right tuple overlaps P2's left tuple; the
			// middles concatenate through the overlap.
			if setsOverlap(p1.Right, p2.Left) {
				mid := append(append([]string(nil), p1.Middle...), p2.Middle...)
				key := "s|" + strings.Join(mid, " ")
				if !seen[key] {
					seen[key] = true
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
				mid := unionWords(p1.Middle, p2.Middle)
				key := "m|" + strings.Join(mid, " ")
				if !seen[key] {
					seen[key] = true
					out = append(out, &Pattern{
						Kind:         MiddleJoined,
						Left:         unionSets(p1.Left, p2.Left),
						Middle:       mid,
						Right:        unionSets(p1.Right, p2.Right),
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
func degreeOfOverlap(middle []string, left, right map[string]bool) float64 {
	if len(middle) == 0 {
		return 0
	}
	n := 0
	for _, w := range middle {
		if left[w] || right[w] {
			n++
		}
	}
	return float64(n) / float64(len(middle))
}

func setsOverlap(a, b map[string]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for w := range a {
		if b[w] {
			return true
		}
	}
	return false
}

func unionSets(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for w := range a {
		out[w] = true
	}
	for w := range b {
		out[w] = true
	}
	return out
}

// unionWords returns the sorted union of two word sequences (set semantics
// for middle-joined middles).
func unionWords(a, b []string) []string {
	set := map[string]bool{}
	for _, w := range a {
		set[w] = true
	}
	for _, w := range b {
		set[w] = true
	}
	out := make([]string, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
