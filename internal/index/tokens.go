package index

import (
	"ctxsearch/internal/corpus"
)

// unknownTerm stands in the token table for a token the index dictionary
// does not hold; it equals no resolved query term.
const unknownTerm int32 = -1

// docTokens is one paper's token stream as index term IDs, the sections
// concatenated in corpus.Sections order: what the phrase and field
// predicates of the boolean language read. At four bytes a token it is the
// only per-paper text representation a serving process keeps — no strings,
// no term-frequency maps.
type docTokens struct {
	// ends[s] is where section s stops in ids (and section s+1 starts).
	ends [corpus.NumSections]int32
	ids  []int32
}

// section returns the token IDs of one section.
func (d *docTokens) section(s corpus.Section) []int32 {
	lo := int32(0)
	if s > 0 {
		lo = d.ends[s-1]
	}
	return d.ids[lo:d.ends[s]]
}

// hasPhrase reports whether the IDs occur contiguously within one section.
func (d *docTokens) hasPhrase(ids []int32) bool {
	for _, s := range corpus.Sections {
		if containsSeq(d.section(s), ids) {
			return true
		}
	}
	return false
}

func containsSeq(toks, words []int32) bool {
	if len(words) == 0 || len(toks) < len(words) {
		return false
	}
outer:
	for i := 0; i+len(words) <= len(toks); i++ {
		for j, w := range words {
			if toks[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}

// tokensOf returns a paper's entry of the token table, building it on first
// use from the paper's text through the analyzer's section tokenizer — the
// pipeline that produced the postings, so the streams are exactly the
// build-time Features.Tokens mapped through the term dictionary. The table
// has one slot per paper and is fed paper text only, so its size is bounded
// by the corpus. A filled slot is immutable and read with one atomic load;
// goroutines racing to fill the same slot build equal entries and the first
// to publish wins. Nil for an ID without a paper.
func (ix *Index) tokensOf(doc corpus.PaperID) *docTokens {
	if int(doc) < 0 || int(doc) >= len(ix.tokens) {
		return nil
	}
	if d := ix.tokens[doc].Load(); d != nil {
		return d
	}
	p := ix.analyzer.Corpus().Paper(doc)
	if p == nil {
		return nil
	}
	d := new(docTokens)
	var ids []int32
	ix.analyzer.SectionTokens(p, func(s corpus.Section, toks []string) {
		for _, tok := range toks {
			ids = append(ids, ix.termID(tok))
		}
		d.ends[s] = int32(len(ids))
	})
	d.ids = make([]int32, len(ids)) // exact size: append's slack would stay live
	copy(d.ids, ids)
	if !ix.tokens[doc].CompareAndSwap(nil, d) {
		d = ix.tokens[doc].Load()
	}
	return d
}

// TokenTablePapers returns how many papers the phrase/field token table
// currently holds — those some boolean query has checked a phrase or field
// predicate against.
func (ix *Index) TokenTablePapers() int {
	n := 0
	for i := range ix.tokens {
		if ix.tokens[i].Load() != nil {
			n++
		}
	}
	return n
}

// termID returns a term's dictionary ID, unknownTerm when it has none.
func (ix *Index) termID(term string) int32 {
	if id, ok := ix.termIDs[term]; ok {
		return id
	}
	return unknownTerm
}
