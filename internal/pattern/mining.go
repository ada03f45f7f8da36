package pattern

import (
	"slices"
	"sort"

	"ctxsearch/internal/corpus"
)

// FreqPhrase is a frequent contiguous phrase mined from a document set.
type FreqPhrase struct {
	Words []int32
	// Support is the number of distinct documents containing the phrase.
	Support int
	// Occurrences is the total number of occurrences across documents.
	Occurrences int
}

// MineFrequentPhrases runs apriori-style level-wise mining of contiguous
// phrases of up to maxPhraseLen words that occur in at least minSup (at least
// 1) distinct documents of docs. Counting scans the documents' token
// streams once per level (cost O(token mass · maxPhraseLen)); a (k+1)-gram is
// counted only when both its k-prefix and k-suffix were frequent at the
// previous level — the apriori downward-closure property for contiguous
// sequences, which prunes the candidate space without any corpus-wide
// queries. A phrase lies inside one section and holds no NoTerm slot.
//
// A k-gram is keyed by its frequent (k−1)-prefix's index at the previous
// level and its last word, so no tuple is ever spelled out to be counted.
// Results are sorted by descending support, then occurrences, then words
// for determinism.
func MineFrequentPhrases(ix *PosIndex, docs []corpus.PaperID, minSup int) []FreqPhrase {
	return mineFrequentPhrases(ix, docs, minSup, maxPhraseLen)
}

// mineFrequentPhrases is MineFrequentPhrases for phrases of up to maxLen
// words.
func mineFrequentPhrases(ix *PosIndex, docs []corpus.PaperID, minSup, maxLen int) []FreqPhrase {
	minSup = max(minSup, 1)
	uniq := slices.Clone(docs)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	streams := make([]*corpus.Tokens, len(uniq))
	total := 0
	for i, d := range uniq {
		streams[i] = ix.analyzer.Tokens(d)
		total += len(streams[i].IDs)
	}

	// gram is a candidate k-gram: the index of its (k−1)-prefix among the
	// previous level's frequent grams (−1 at level 1) and its last word.
	type gram struct{ prefix, last int32 }
	type stat struct {
		gram
		support, occ int
		lastDoc      int // the last document counted in support
	}
	var out []FreqPhrase
	// prev[i] / cur[i] hold, for the gram starting at position i of the
	// concatenated streams, its frequent index at the previous level and its
	// candidate index at this one; −1 for none.
	prev := make([]int32, total)
	cur := make([]int32, total)
	var prevWords [][]int32 // words of the previous level's frequent grams

	for k := 1; k <= maxLen; k++ {
		cands := make(map[gram]int32)
		var stats []stat
		for i := range cur {
			cur[i] = -1
		}
		base := 0
		for di, toks := range streams {
			lo := int32(0)
			for _, end := range toks.Ends {
				for i := lo; i+int32(k) <= end; i++ {
					at := base + int(i)
					g := gram{-1, toks.IDs[i+int32(k)-1]}
					if k == 1 {
						if g.last == corpus.NoTerm {
							continue
						}
					} else {
						// Apriori pruning on prefix and suffix.
						if prev[at] < 0 || prev[at+1] < 0 {
							continue
						}
						g.prefix = prev[at]
					}
					c, ok := cands[g]
					if !ok {
						c = int32(len(stats))
						cands[g] = c
						stats = append(stats, stat{gram: g, lastDoc: -1})
					}
					st := &stats[c]
					st.occ++
					if st.lastDoc != di {
						st.lastDoc = di
						st.support++
					}
					cur[at] = c
				}
				lo = end
			}
			base += len(toks.IDs)
		}
		frequent := make([]int32, len(stats)) // candidate → frequent index, or −1
		var words [][]int32
		for c, st := range stats {
			frequent[c] = -1
			if st.support < minSup {
				continue
			}
			frequent[c] = int32(len(words))
			var w []int32
			if st.prefix >= 0 {
				w = slices.Clone(prevWords[st.prefix])
			}
			w = append(w, st.last)
			words = append(words, w)
			out = append(out, FreqPhrase{Words: w, Support: st.support, Occurrences: st.occ})
		}
		if len(words) == 0 {
			break
		}
		for i, c := range cur {
			if c >= 0 {
				cur[i] = frequent[c]
			}
		}
		prev, cur, prevWords = cur, prev, words
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].Occurrences != out[j].Occurrences {
			return out[i].Occurrences > out[j].Occurrences
		}
		return slices.Compare(out[i].Words, out[j].Words) < 0
	})
	return out
}
