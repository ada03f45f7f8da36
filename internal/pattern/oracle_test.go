package pattern_test

// The map-form positional index, matcher, pattern builder and phrase miner,
// kept (renamed, with the settings and kind type taken from the package,
// built serially and without scratch pools, the matcher reading
// each phrase's occurrences from the caller) as the oracle the term-ID
// package is held to: every token is a string, positions are keyed by word
// then document, and sections are separated by gap slots in one position
// space per paper.

import (
	"math"
	"sort"
	"strings"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/pattern"
)

// sectionGap separates sections in the global position space so that a
// phrase can never straddle a section boundary (adjacency steps by exactly
// 1; the gap is 2).
const sectionGap = 2

// mapOccurrence locates one phrase occurrence inside a document.
type mapOccurrence struct {
	Doc corpus.PaperID
	// Pos is the global position of the first word (see mapPosIndex).
	Pos int
	// Section is the paper section containing the occurrence.
	Section corpus.Section
}

// mapPosIndex is a positional inverted index over the analysed corpus: for
// every stemmed term, the documents and global token positions where it
// occurs. Phrase queries intersect positions, so their cost scales with the
// rarest word of the phrase, not with corpus size.
type mapPosIndex struct {
	analyzer *corpus.Analyzer
	// positions[word][doc] = sorted global positions.
	positions map[string]map[corpus.PaperID][]int32
	// bounds[doc] = start position of each section, aligned with
	// corpus.Sections; used to map a global position back to its section
	// and to recover window tokens. Indexed by PaperID (IDs are dense).
	bounds [][]int32
	// tokens[doc] = concatenated token stream with section gaps, indexed by
	// global position (gap slots hold "").
	tokens [][]string
}

// newMapPosIndex builds the positional index from an analysed corpus.
func newMapPosIndex(a *corpus.Analyzer) *mapPosIndex {
	n := a.Corpus().Len()
	ix := &mapPosIndex{
		analyzer:  a,
		positions: make(map[string]map[corpus.PaperID][]int32),
		bounds:    make([][]int32, n),
		tokens:    make([][]string, n),
	}
	for _, p := range a.Corpus().Papers() {
		toks := a.Tokens(p.ID)
		var stream []string
		var bounds []int32
		for _, s := range corpus.Sections {
			if len(stream) > 0 {
				for g := 0; g < sectionGap; g++ {
					stream = append(stream, "")
				}
			}
			bounds = append(bounds, int32(len(stream)))
			for _, id := range toks.Section(s) {
				stream = append(stream, a.Term(id))
			}
		}
		ix.bounds[p.ID] = bounds
		ix.tokens[p.ID] = stream
		for pos, w := range stream {
			if w == "" {
				continue
			}
			m := ix.positions[w]
			if m == nil {
				m = make(map[corpus.PaperID][]int32)
				ix.positions[w] = m
			}
			m[p.ID] = append(m[p.ID], int32(pos))
		}
	}
	return ix
}

// Analyzer returns the analyzer the index was built from.
func (ix *mapPosIndex) Analyzer() *corpus.Analyzer { return ix.analyzer }

// WordDocFreq returns in how many documents the word occurs.
func (ix *mapPosIndex) WordDocFreq(w string) int { return len(ix.positions[w]) }

// SectionOf maps a document-global position back to its section.
func (ix *mapPosIndex) SectionOf(doc corpus.PaperID, pos int) corpus.Section {
	bounds := ix.bounds[doc]
	sec := corpus.Sections[0]
	for i, b := range bounds {
		if pos >= int(b) {
			sec = corpus.Sections[i]
		}
	}
	return sec
}

// PhraseOccurrences finds all contiguous occurrences of the stemmed word
// sequence across the corpus (or within the docs set if non-nil). Returns
// occurrences grouped per document in position order. Safe for concurrent
// use.
func (ix *mapPosIndex) PhraseOccurrences(words []string, within map[corpus.PaperID]bool) map[corpus.PaperID][]mapOccurrence {
	if len(words) == 0 {
		return nil
	}
	// Drive from the rarest word to minimise verification work.
	rarest := 0
	for i, w := range words {
		if ix.WordDocFreq(w) < ix.WordDocFreq(words[rarest]) {
			rarest = i
		}
	}
	sets := make([]map[int32]bool, len(words))
	driver := ix.positions[words[rarest]]
	out := make(map[corpus.PaperID][]mapOccurrence)
	for doc, drvPositions := range driver {
		if within != nil && !within[doc] {
			continue
		}
		// Collect the other words' position sets for this doc, reusing the
		// maps (cleared before each fill; stale entries from an earlier
		// document are never read because every non-rarest index is refilled
		// before the match loop runs).
		ok := true
		for i, w := range words {
			if i == rarest {
				continue
			}
			ps := ix.positions[w][doc]
			if len(ps) == 0 {
				ok = false
				break
			}
			set := sets[i]
			if set == nil {
				set = make(map[int32]bool, len(ps))
				sets[i] = set
			} else {
				clear(set)
			}
			for _, p := range ps {
				set[p] = true
			}
		}
		if !ok {
			continue
		}
		var occs []mapOccurrence
		for _, dp := range drvPositions {
			start := dp - int32(rarest)
			match := true
			for i := range words {
				if i == rarest {
					continue
				}
				if !sets[i][start+int32(i)] {
					match = false
					break
				}
			}
			if match {
				occs = append(occs, mapOccurrence{
					Doc:     doc,
					Pos:     int(start),
					Section: ix.SectionOf(doc, int(start)),
				})
			}
		}
		if len(occs) > 0 {
			sort.Slice(occs, func(i, j int) bool { return occs[i].Pos < occs[j].Pos })
			out[doc] = occs
		}
	}
	return out
}

// Window returns up to w non-gap tokens on each side of the span
// [pos, pos+length) in the document's global stream, never crossing into a
// neighbouring document.
func (ix *mapPosIndex) Window(doc corpus.PaperID, pos, length, w int) (left, right []string) {
	stream := ix.tokens[doc]
	for i := pos - 1; i >= 0 && len(left) < w; i-- {
		if stream[i] == "" {
			break // stop at section boundary
		}
		left = append([]string{stream[i]}, left...)
	}
	for i := pos + length; i < len(stream) && len(right) < w; i++ {
		if stream[i] == "" {
			break
		}
		right = append(right, stream[i])
	}
	return left, right
}

// DocFreqOfPhrase returns in how many documents the phrase occurs.
func (ix *mapPosIndex) DocFreqOfPhrase(words []string) int {
	return len(ix.PhraseOccurrences(words, nil))
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
// weigh by the fraction of their word set present. A simplified set's
// matches are not corroborated. Scores are raw — callers normalise per
// context. occs[i] holds the corpus-wide occurrences of pattern i's middle
// with their pattern.Window-word windows (mapOccs), so a phrase is found
// once per corpus rather than once per context; middle-joined patterns have
// none.
func (s *mapSet) ScorePapers(ix *mapPosIndex, within map[corpus.PaperID]bool, occs [][]mapOcc) map[corpus.PaperID]float64 {
	scores := make(map[corpus.PaperID]float64)
	for i, p := range s.Patterns {
		switch p.Kind {
		case pattern.Regular, pattern.SideJoined:
			s.matchSequential(p, occs[i], within, scores)
		case pattern.MiddleJoined:
			s.matchSet(ix, p, within, scores)
		}
	}
	return scores
}

// matchSequential handles exact contiguous middle-tuple matches: occs are
// the middle's occurrences, of which those in within count.
func (s *mapSet) matchSequential(p *mapPattern, occs []mapOcc, within map[corpus.PaperID]bool, scores map[corpus.PaperID]float64) {
	best := make(map[corpus.PaperID]float64)
	for _, oc := range occs {
		if within != nil && !within[oc.doc] {
			continue
		}
		w := pattern.SectionWeights[oc.sec]
		if w == 0 {
			continue
		}
		strength := w
		if !s.simplified {
			// Corroborate with the surrounding window: the more of the
			// observed neighbourhood appears in the pattern's left/right
			// tuples, the stronger the match.
			strength = w * (0.7 + float64(0.3*contextOverlap(oc.left, oc.right, p.Left, p.Right)))
		}
		best[oc.doc] = max(best[oc.doc], strength)
	}
	for doc, b := range best {
		if b > 0 {
			scores[doc] += float64(p.Score * b)
		}
	}
}

// matchSet handles middle-joined patterns whose middle is an unordered word
// set: a document matches when at least pattern.MinSetFraction of the set is
// present; strength scales with the fraction present and the best section
// weight among the present words.
func (s *mapSet) matchSet(ix *mapPosIndex, p *mapPattern, within map[corpus.PaperID]bool, scores map[corpus.PaperID]float64) {
	byDoc := make(map[corpus.PaperID]setAcc)
	for _, w := range p.Middle {
		for doc, positions := range ix.positions[w] {
			if within != nil && !within[doc] {
				continue
			}
			a := byDoc[doc]
			a.present++
			for _, pos := range positions {
				if sw := pattern.SectionWeights[ix.SectionOf(doc, int(pos))]; sw > a.bestSec {
					a.bestSec = sw
				}
			}
			byDoc[doc] = a
		}
	}
	need := float64(len(p.Middle)) * pattern.MinSetFraction
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

// mapPattern is a ⟨left, middle, right⟩ textual pattern. Left and Right are
// word *sets* observed around the middle tuple in training papers; Middle is
// a word *sequence* for regular and side-joined patterns and an unordered
// word set (stored as a sorted sequence) for middle-joined patterns.
type mapPattern struct {
	Kind   pattern.Kind
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
func (p *mapPattern) MiddleKey() string { return strings.Join(p.Middle, " ") }

// mapSet is the pattern set constructed for one context.
type mapSet struct {
	Term       ontology.TermID
	Patterns   []*mapPattern
	simplified bool // regular patterns only, matches not corroborated (§4)
}

// mapTermWordDF counts, for every stemmed word appearing in any ontology term
// name, the number of terms whose name contains it. The inverse is the
// word's selectivity (§3.3 criterion 2).
func mapTermWordDF(onto *ontology.Ontology, ix *mapPosIndex) map[string]int {
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

// mapBuild constructs the scored pattern set for one context term from its
// training (annotation evidence) papers, with at most maxSig significant
// terms and, unless simplified, extended patterns. Returns an empty set when
// the term has no training papers or none of the significant terms occur in
// them.
func mapBuild(ix *mapPosIndex, onto *ontology.Ontology, term ontology.TermID, training []corpus.PaperID, termWordDF map[string]int, maxSig int, simplified bool) *mapSet {
	set := &mapSet{Term: term, simplified: simplified}
	if len(training) == 0 || onto.Term(term) == nil {
		return set
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
		if len(words) == 0 || len(significant) >= maxSig {
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
	minSup := pattern.MinSupport
	if minSup > len(training) {
		minSup = len(training)
	}
	mined := mapMine(ix, training, minSup, pattern.MaxPhraseLen)
	for _, fp := range mined {
		if len(significant) >= maxSig {
			break
		}
		addSig(fp.Words)
	}

	// mapBuild one regular pattern per significant term that actually occurs
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
				l, r := ix.Window(oc.Doc, oc.Pos, len(sig), pattern.Window)
				for _, w := range l {
					left[w] = true
				}
				for _, w := range r {
					right[w] = true
				}
			}
		}
		p := &mapPattern{
			Kind:   pattern.Regular,
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
		p.Score = regularScore(p, ix, ctxSet, termWordDF, len(training), len(occs), totalOcc)
		set.Patterns = append(set.Patterns, p)
	}

	if !simplified {
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
func regularScore(p *mapPattern, ix *mapPosIndex, ctxSet map[string]bool, termWordDF map[string]int, nTraining, paperFreq, occFreq int) float64 {
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
	freqTerm := float64(pattern.FreqCoef * (float64(occFreq)/float64(nTraining) + float64(paperFreq)/float64(nTraining)))

	base := middleType + termScore + freqTerm
	return base * math.Pow(1/coverage, pattern.CoverageExp)
}

// buildExtended derives side-joined and middle-joined patterns from every
// ordered pair of regular patterns (§3.3, [4]).
func buildExtended(regs []*mapPattern) []*mapPattern {
	var out []*mapPattern
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
					out = append(out, &mapPattern{
						Kind:         pattern.SideJoined,
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
					out = append(out, &mapPattern{
						Kind:         pattern.MiddleJoined,
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

// mapFreqPhrase is a frequent contiguous phrase mined from a document set.
type mapFreqPhrase struct {
	Words []string
	// Support is the number of distinct documents containing the phrase.
	Support int
	// Occurrences is the total number of occurrences across documents.
	Occurrences int
}

// Key returns the canonical space-joined phrase.
func (f mapFreqPhrase) Key() string { return strings.Join(f.Words, " ") }

// mapMine runs apriori-style level-wise mining of contiguous
// phrases over the given documents. Counting scans the documents' token
// streams once per level (cost O(token mass · maxLen)); a (k+1)-gram is
// counted only when both its k-prefix and k-suffix were frequent at the
// previous level — the apriori downward-closure property for contiguous
// sequences, which prunes the candidate space without any corpus-wide
// queries.
//
// Results are sorted by descending support, then occurrences, then phrase
// text for determinism.
func mapMine(ix *mapPosIndex, docs []corpus.PaperID, minSup, maxLen int) []mapFreqPhrase {
	minSup = max(minSup, 1)
	uniq := make([]corpus.PaperID, 0, len(docs))
	seenDoc := make(map[corpus.PaperID]bool, len(docs))
	for _, d := range docs {
		if !seenDoc[d] {
			seenDoc[d] = true
			uniq = append(uniq, d)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })

	type stat struct{ support, occ int }
	var out []mapFreqPhrase
	prevFrequent := map[string]bool{} // keys of frequent (k)-grams

	for k := 1; k <= maxLen; k++ {
		counts := make(map[string]*stat)
		for _, d := range uniq {
			toks := ix.tokens[d]
			seen := map[string]bool{}
			for i := 0; i+k <= len(toks); i++ {
				ok := true
				for j := i; j < i+k; j++ {
					if toks[j] == "" { // section gap
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				key := strings.Join(toks[i:i+k], " ")
				if k > 1 {
					// Apriori pruning on prefix and suffix.
					prefix := strings.Join(toks[i:i+k-1], " ")
					suffix := strings.Join(toks[i+1:i+k], " ")
					if !prevFrequent[prefix] || !prevFrequent[suffix] {
						continue
					}
				}
				s := counts[key]
				if s == nil {
					s = &stat{}
					counts[key] = s
				}
				s.occ++
				if !seen[key] {
					seen[key] = true
					s.support++
				}
			}
		}
		frequent := map[string]bool{}
		for key, s := range counts {
			if s.support >= minSup {
				frequent[key] = true
				out = append(out, mapFreqPhrase{Words: strings.Fields(key), Support: s.support, Occurrences: s.occ})
			}
		}
		if len(frequent) == 0 {
			break
		}
		prevFrequent = frequent
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences > out[j].Occurrences
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}
