// Package pattern implements the pattern-based prestige machinery of the
// paper's §3.3: apriori-style frequent-phrase mining over training papers,
// regular ⟨left, middle, right⟩ patterns, side-joined and middle-joined
// extended patterns, the pattern score function (MiddleTypeScore,
// TotalTermScore, PaperCoverage, PatternOccFreq, PatternPaperFreq), and
// pattern→paper matching with per-section match strength.
//
// Every word is a term ID of the analyzer's dictionary and every text is a
// paper's corpus.Tokens stream: phrases, windows, pattern tuples and mined
// phrases are []int32. Because IDs follow lexicographic term order, a sorted
// ID set lists its words in string order, and comparing two ID tuples orders
// them as comparing their space-joined words does (every token byte sorts
// above ' ').
package pattern

import (
	"slices"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
)

// Occurrence locates one phrase occurrence inside a document.
type Occurrence struct {
	Doc corpus.PaperID
	// Pos is the position of the first word in the paper's token stream
	// (an index into corpus.Tokens.IDs).
	Pos int
	// Section is the paper section containing the occurrence.
	Section corpus.Section
}

// posting is one occurrence of a term: the paper and its position in the
// paper's token stream.
type posting struct {
	doc, pos int32
}

// PosIndex is a positional inverted index over the analyzer's token
// streams: per term ID, one run of (doc, position) postings in
// doc-then-position order. Positions index corpus.Tokens.IDs, whose section
// ends bound phrases and windows, so the index stores nothing else. Phrase
// queries walk the run of the phrase's rarest term, so their cost scales
// with it, not with corpus size. Read-only once built: safe for concurrent
// use.
type PosIndex struct {
	analyzer *corpus.Analyzer
	// Term t's run is occ[off[t]:off[t+1]].
	off []int32
	occ []posting
}

// NewPosIndex builds the positional index of an analysed corpus in one
// counting pass over the token streams: count each term's postings, lay the
// runs out by prefix sum, then fill them paper by paper, position by
// position.
func NewPosIndex(a *corpus.Analyzer) *PosIndex {
	n := a.Corpus().Len()
	off := make([]int32, len(a.DF().Terms())+1)
	for d := 0; d < n; d++ {
		for _, t := range a.Tokens(corpus.PaperID(d)).IDs {
			if t != corpus.NoTerm {
				off[t+1]++
			}
		}
	}
	for t := 1; t < len(off); t++ {
		off[t] += off[t-1]
	}
	occ := make([]posting, off[len(off)-1])
	next := slices.Clone(off[:len(off)-1])
	for d := 0; d < n; d++ {
		for pos, t := range a.Tokens(corpus.PaperID(d)).IDs {
			if t != corpus.NoTerm {
				occ[next[t]] = posting{int32(d), int32(pos)}
				next[t]++
			}
		}
	}
	return &PosIndex{analyzer: a, off: off, occ: occ}
}

// Analyzer returns the analyzer the index was built from.
func (ix *PosIndex) Analyzer() *corpus.Analyzer { return ix.analyzer }

// run returns the postings of a term; none for an ID outside the dictionary
// (NoTerm, or a placeholder of nameIDs).
func (ix *PosIndex) run(t int32) []posting {
	if t < 0 || int(t) >= len(ix.off)-1 {
		return nil
	}
	return ix.occ[ix.off[t]:ix.off[t+1]]
}

// nameIDs tokenizes an ontology term name into term IDs. A word the
// dictionary lacks gets a negative placeholder below NoTerm, one per
// distinct word of the name, so two such words stay apart and neither
// matches any text.
func (ix *PosIndex) nameIDs(name string) []int32 {
	words := ix.analyzer.Tokenizer().Terms(name)
	ids := make([]int32, len(words))
	for i, w := range words {
		if id, ok := ix.analyzer.DF().ID(w); ok {
			ids[i] = id
			continue
		}
		ids[i] = corpus.NoTerm - 1 - int32(i)
		if j := slices.Index(words[:i], w); j >= 0 {
			ids[i] = ids[j]
		}
	}
	return ids
}

// section returns the section holding position pos of a token stream and
// the section's bounds [lo, hi) in the stream.
func section(t *corpus.Tokens, pos int32) (s corpus.Section, lo, hi int32) {
	for i, end := range t.Ends {
		if pos < end {
			return corpus.Section(i), lo, end
		}
		lo = end
	}
	return corpus.Section(len(t.Ends) - 1), lo, lo
}

// eachPhrase calls fn for every contiguous occurrence of the phrase inside
// one section of a paper in within (nil = the whole corpus), in (doc,
// position) order. It walks the run of the phrase's rarest term and checks
// each candidate start against the paper's own stream.
func (ix *PosIndex) eachPhrase(ids []int32, within bitset.Set, fn func(Occurrence)) {
	if len(ids) == 0 {
		return
	}
	rarest := 0
	for i, id := range ids {
		if len(ix.run(id)) < len(ix.run(ids[rarest])) {
			rarest = i
		}
	}
	n := int32(len(ids))
	var toks *corpus.Tokens
	doc := int32(-1)
	for _, p := range ix.run(ids[rarest]) {
		if within != nil && !within.Contains(int(p.doc)) {
			continue
		}
		start := p.pos - int32(rarest)
		if start < 0 {
			continue
		}
		if p.doc != doc {
			doc, toks = p.doc, ix.analyzer.Tokens(corpus.PaperID(p.doc))
		}
		if int(start+n) > len(toks.IDs) || !slices.Equal(toks.IDs[start:start+n], ids) {
			continue
		}
		if sec, _, end := section(toks, start); start+n <= end {
			fn(Occurrence{Doc: corpus.PaperID(doc), Pos: int(start), Section: sec})
		}
	}
}

// PhraseOccurrences appends to dst every occurrence of the phrase in a
// paper of within (nil = the whole corpus), in (doc, position) order. A
// phrase never spans two sections. Safe for concurrent use.
func (ix *PosIndex) PhraseOccurrences(ids []int32, within bitset.Set, dst []Occurrence) []Occurrence {
	ix.eachPhrase(ids, within, func(oc Occurrence) { dst = append(dst, oc) })
	return dst
}

// DocFreqOfPhrase returns in how many documents the phrase occurs.
func (ix *PosIndex) DocFreqOfPhrase(ids []int32) int {
	n, last := 0, corpus.PaperID(-1)
	ix.eachPhrase(ids, nil, func(oc Occurrence) {
		if oc.Doc != last {
			n, last = n+1, oc.Doc
		}
	})
	return n
}

// Window returns up to w tokens on each side of the span [pos, pos+length)
// of a paper's token stream, stopping at the edge of the span's section and
// at a NoTerm slot. Both are views of the stream: callers must not modify
// them.
func (ix *PosIndex) Window(doc corpus.PaperID, pos, length, w int) (left, right []int32) {
	toks := ix.analyzer.Tokens(doc)
	ids := toks.IDs
	_, lo, hi := section(toks, int32(pos))
	l := pos
	for l > int(lo) && pos-l < w && ids[l-1] != corpus.NoTerm {
		l--
	}
	end := pos + length
	r := end
	for r < int(hi) && r-end < w && ids[r] != corpus.NoTerm {
		r++
	}
	return ids[l:pos:pos], ids[end:r:r]
}
