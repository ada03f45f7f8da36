// Package pattern implements the pattern-based prestige machinery of the
// paper's §3.3: apriori-style frequent-phrase mining over training papers,
// regular ⟨left, middle, right⟩ patterns, side-joined and middle-joined
// extended patterns, the pattern score function (MiddleTypeScore,
// TotalTermScore, PaperCoverage, PatternOccFreq, PatternPaperFreq), and
// pattern→paper matching with per-section match strength.
package pattern

import (
	"sort"
	"sync"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/par"
)

// sectionGap separates sections in the global position space so that a
// phrase can never straddle a section boundary (adjacency steps by exactly
// 1; the gap is 2).
const sectionGap = 2

// Occurrence locates one phrase occurrence inside a document.
type Occurrence struct {
	Doc corpus.PaperID
	// Pos is the global position of the first word (see PosIndex).
	Pos int
	// Section is the paper section containing the occurrence.
	Section corpus.Section
}

// PosIndex is a positional inverted index over the analysed corpus: for
// every stemmed term, the documents and global token positions where it
// occurs. Phrase queries intersect positions, so their cost scales with the
// rarest word of the phrase, not with corpus size.
type PosIndex struct {
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
	// phrasePool recycles PhraseOccurrences' per-word position-set scratch
	// across calls — pattern matching runs it for every (pattern, context)
	// pair, so the maps are worth pooling.
	phrasePool sync.Pool
	// setAccPool recycles matchSet's per-document accumulator maps the same
	// way (one lease per middle-joined pattern scored).
	setAccPool sync.Pool
}

// NewPosIndexWorkers builds the positional index from an analysed corpus:
// papers are split into contiguous shards, each worker builds its shard's position
// maps, token streams and section bounds, and the per-shard position maps
// are merged afterwards. The merged index is identical at every worker
// count — every (word, doc) entry is produced by exactly one shard (docs
// are partitioned), so the merge writes disjoint keys, and the per-doc
// position slices are built in the same ascending order as the sequential
// build. workers <= 0 selects GOMAXPROCS.
func NewPosIndexWorkers(a *corpus.Analyzer, workers int) *PosIndex {
	n := a.Corpus().Len()
	ix := &PosIndex{
		analyzer:  a,
		positions: make(map[string]map[corpus.PaperID][]int32),
		bounds:    make([][]int32, n),
		tokens:    make([][]string, n),
	}
	papers := a.Corpus().Papers()
	shards := par.Shards(len(papers), workers)
	locals := make([]map[string]map[corpus.PaperID][]int32, len(shards))
	par.ForShards(shards, func(si int, sh par.Shard) {
		local := make(map[string]map[corpus.PaperID][]int32)
		for i := sh.Lo; i < sh.Hi; i++ {
			p := papers[i]
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
				m := local[w]
				if m == nil {
					m = make(map[corpus.PaperID][]int32)
					local[w] = m
				}
				m[p.ID] = append(m[p.ID], int32(pos))
			}
		}
		locals[si] = local
	})
	// Merge shard maps; (word, doc) keys are disjoint across shards, so the
	// first shard seen for a word donates its inner map wholesale and later
	// shards insert fresh doc keys into it.
	for _, local := range locals {
		for w, byDoc := range local {
			g := ix.positions[w]
			if g == nil {
				ix.positions[w] = byDoc
				continue
			}
			for d, ps := range byDoc {
				g[d] = ps
			}
		}
	}
	return ix
}

// Analyzer returns the analyzer the index was built from.
func (ix *PosIndex) Analyzer() *corpus.Analyzer { return ix.analyzer }

// WordDocFreq returns in how many documents the word occurs.
func (ix *PosIndex) WordDocFreq(w string) int { return len(ix.positions[w]) }

// SectionOf maps a document-global position back to its section.
func (ix *PosIndex) SectionOf(doc corpus.PaperID, pos int) corpus.Section {
	bounds := ix.bounds[doc]
	sec := corpus.Sections[0]
	for i, b := range bounds {
		if pos >= int(b) {
			sec = corpus.Sections[i]
		}
	}
	return sec
}

// phraseScratch holds the per-word position sets PhraseOccurrences builds
// while verifying word adjacency. Pooled per PosIndex: pattern matching
// runs a phrase query for every (pattern, context) pair, and reusing the
// maps (cleared per document) avoids re-allocating them millions of times.
type phraseScratch struct {
	sets []map[int32]bool
}

// PhraseOccurrences finds all contiguous occurrences of the stemmed word
// sequence across the corpus (or within the docs set if non-nil). Returns
// occurrences grouped per document in position order. Safe for concurrent
// use.
func (ix *PosIndex) PhraseOccurrences(words []string, within map[corpus.PaperID]bool) map[corpus.PaperID][]Occurrence {
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
	sc, _ := ix.phrasePool.Get().(*phraseScratch)
	if sc == nil {
		sc = &phraseScratch{}
	}
	defer ix.phrasePool.Put(sc)
	for len(sc.sets) < len(words) {
		sc.sets = append(sc.sets, nil)
	}
	sets := sc.sets[:len(words)]
	driver := ix.positions[words[rarest]]
	out := make(map[corpus.PaperID][]Occurrence)
	for doc, drvPositions := range driver {
		if within != nil && !within[doc] {
			continue
		}
		// Collect the other words' position sets for this doc, reusing the
		// pooled maps (cleared before each fill; stale entries from an
		// earlier document are never read because every non-rarest index is
		// refilled before the match loop runs).
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
		var occs []Occurrence
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
				occs = append(occs, Occurrence{
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
func (ix *PosIndex) Window(doc corpus.PaperID, pos, length, w int) (left, right []string) {
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
func (ix *PosIndex) DocFreqOfPhrase(words []string) int {
	return len(ix.PhraseOccurrences(words, nil))
}
