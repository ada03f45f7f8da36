package index

import (
	"fmt"
	"slices"

	"ctxsearch/internal/corpus"
)

// Parts is the serializable flat form of an Index: the segmented postings
// and document norms, term t being the analyzer's dictionary's term t
// (vector.DF.Terms), which the parts do not repeat. It is what the state
// file persists so that serving can skip corpus re-analysis and index
// construction entirely — FromParts rebinds these arrays (typically aliasing
// a memory-mapped file) to a live Index in O(terms + segments) plus one read
// of the doc column, copying no posting.
type Parts struct {
	// Postings grouped by term frequency: term t's segments are First[t] <=
	// s < First[t+1], in ascending TF; segment s's papers, ascending, are
	// Docs[Start[s]:Start[s+1]], and TF[s] is their whole-text term frequency
	// (>= 1) for the term, from which the index derives their TF-IDF weight
	// under the analyzer's DF table.
	First []int32
	Start []int32
	TF    []uint16
	Docs  []corpus.PaperID
	// Norms[d] is document d's TF-IDF vector norm (full corpus size).
	Norms []float64
}

// Parts exposes the index's flat arrays for serialization. All slices alias
// the index and are read-only.
func (ix *Index) Parts() *Parts {
	return &Parts{
		First: ix.first,
		Start: ix.start,
		TF:    ix.tf,
		Docs:  ix.docs,
		Norms: ix.norms,
	}
}

// FromParts constructs an Index over caller-provided flat arrays — the
// zero-copy open path of the state file. The index borrows every
// slice verbatim and never mutates or appends, so mapping-backed
// (read-only) memory is safe; the caller keeps the backing storage alive
// for the index's lifetime. The analyzer must be over the same corpus the
// parts were built from: its DF table weights the query and, with each
// segment's TF, every posting — (1 + ln tf)·idf, the analyzer's own
// arithmetic — and its dictionary numbers the parts' terms, so the parts
// must hold one first segment per dictionary term.
//
// Validation is O(terms + segments) for the structure — lengths, first
// segments and segment starts monotone and in range, and every TF at least
// 1, the largest sizing the TF damping table — and then one pass over the
// doc column, after those checks: every document ID must index the norms,
// so that no posting indexes past the query loop's arrays.
// The order of a segment's documents is the writer's contract, guarded on
// disk by section CRCs.
func FromParts(a *corpus.Analyzer, p *Parts) (*Index, error) {
	nTerms, nSegs := len(a.DF().Terms()), len(p.TF)
	if n := a.Corpus().Len(); len(p.Norms) != n {
		return nil, fmt.Errorf("index: %d norms for a %d-paper corpus", len(p.Norms), n)
	}
	if err := checkCSR("first segments", p.First, nTerms, nSegs); err != nil {
		return nil, err
	}
	if err := checkCSR("segment starts", p.Start, nSegs, len(p.Docs)); err != nil {
		return nil, err
	}
	if s := slices.Index(p.TF, 0); s >= 0 {
		return nil, fmt.Errorf("index: segment %d has term frequency 0", s)
	}
	for i, d := range p.Docs {
		if uint(d) >= uint(len(p.Norms)) {
			return nil, fmt.Errorf("index: posting %d names paper %d of a %d-paper corpus", i, d, len(p.Norms))
		}
	}
	return newIndex(a, p.First, p.Start, p.TF, p.Docs, p.Norms), nil
}

// checkCSR fails unless offs has n+1 entries ascending from 0 to total: the
// row offsets of n rows over total elements.
func checkCSR(name string, offs []int32, n, total int) error {
	if len(offs) != n+1 {
		return fmt.Errorf("index: %d %s, want %d", len(offs), name, n+1)
	}
	if offs[0] != 0 || int(offs[n]) != total {
		return fmt.Errorf("index: %s span [%d, %d), want [0, %d)", name, offs[0], offs[n], total)
	}
	for i := range n {
		if offs[i] > offs[i+1] {
			return fmt.Errorf("index: %s decrease at %d", name, i)
		}
	}
	return nil
}

// SliceRange restricts the parts to postings of documents with
// lo <= ID < hi — the per-range open of the sharded serving topology over
// a mapped state, without re-analyzing a single paper. Every term's
// segments with their TFs, and the norms, stay corpus-global (a
// segment whose papers fall outside the range stays, empty, which the query
// path treats exactly like a segment it never had), so a range engine's
// scores are bit-identical to the full build's for its own documents. The
// returned parts own their doc column and segment starts (copied out of the
// mapped arrays); First, TF and Norms stay borrowed.
func (p *Parts) SliceRange(lo, hi int) *Parts {
	out := &Parts{
		First: p.First,
		Start: make([]int32, len(p.TF)+1),
		TF:    p.TF,
		Norms: p.Norms,
	}
	for s := range p.TF {
		seg := p.Docs[p.Start[s]:p.Start[s+1]]
		a, _ := slices.BinarySearch(seg, corpus.PaperID(lo))
		b, _ := slices.BinarySearch(seg, corpus.PaperID(hi))
		out.Docs = append(out.Docs, seg[a:b]...)
		out.Start[s+1] = int32(len(out.Docs))
	}
	return out
}
