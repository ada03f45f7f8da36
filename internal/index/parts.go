package index

import (
	"fmt"
	"slices"

	"ctxsearch/internal/corpus"
)

// Parts is the serializable flat form of an Index: the term dictionary plus
// the CSR postings and document norms. It is what the state file persists
// so that serving can skip corpus re-analysis and index construction
// entirely — FromParts rebinds these arrays (typically aliasing a
// memory-mapped file) to a live Index in O(terms), never touching a
// posting.
type Parts struct {
	// Terms holds the indexed term strings in lexicographic order, term i
	// having ID i: the analyzer's dictionary (vector.DF.Terms).
	Terms []string
	// CSR postings: term t's run is Docs[Offsets[t]:Offsets[t+1]] and
	// Weights[...], ascending by doc ID.
	Offsets []int32
	Docs    []corpus.PaperID
	Weights []float64
	// Norms[d] is document d's TF-IDF vector norm (full corpus size).
	Norms []float64
}

// Parts exposes the index's flat arrays for serialization. All slices alias
// the index or its analyzer and are read-only.
func (ix *Index) Parts() *Parts {
	return &Parts{
		Terms:   ix.analyzer.DF().Terms(),
		Offsets: ix.offsets,
		Docs:    ix.docs,
		Weights: ix.weights,
		Norms:   ix.norms,
	}
}

// FromParts constructs an Index over caller-provided flat arrays — the
// zero-copy open path of the state file. The index borrows every
// slice verbatim and never mutates or appends, so mapping-backed
// (read-only) memory is safe; the caller keeps the backing storage alive
// for the index's lifetime. The analyzer must be over the same corpus the
// parts were built from (its DF table drives query weighting; document
// weights are already frozen in the postings), and its dictionary must be
// the parts' term list: parts whose terms differ would bind every query term
// to another term's postings, so they are rejected.
//
// Validation is O(terms): lengths, offset monotonicity and the dictionary.
// Per-element posting content is the writer's contract,
// guarded on disk by section CRCs — scanning it here would fault in every
// page and defeat the O(1) open.
func FromParts(a *corpus.Analyzer, p *Parts) (*Index, error) {
	nTerms := len(p.Terms)
	if len(p.Offsets) != nTerms+1 {
		return nil, fmt.Errorf("index: %d terms need %d offsets, have %d", nTerms, nTerms+1, len(p.Offsets))
	}
	if len(p.Docs) != len(p.Weights) {
		return nil, fmt.Errorf("index: %d docs vs %d weights", len(p.Docs), len(p.Weights))
	}
	if p.Offsets[0] != 0 || int(p.Offsets[nTerms]) != len(p.Docs) {
		return nil, fmt.Errorf("index: offsets span [%d, %d), want [0, %d)", p.Offsets[0], p.Offsets[nTerms], len(p.Docs))
	}
	if n := a.Corpus().Len(); len(p.Norms) != n {
		return nil, fmt.Errorf("index: %d norms for a %d-paper corpus", len(p.Norms), n)
	}
	dict := a.DF().Terms()
	if len(dict) != nTerms {
		return nil, fmt.Errorf("index: %d terms against a %d-term dictionary", nTerms, len(dict))
	}
	for i, term := range p.Terms {
		if term != dict[i] {
			return nil, fmt.Errorf("index: term %d is %q, the dictionary's is %q", i, term, dict[i])
		}
		if p.Offsets[i] > p.Offsets[i+1] {
			return nil, fmt.Errorf("index: offsets decrease at term %d (%q)", i, term)
		}
	}
	ix := &Index{
		analyzer: a,
		offsets:  p.Offsets,
		docs:     p.Docs,
		weights:  p.Weights,
		norms:    p.Norms,
	}
	n := len(p.Norms)
	ix.accPool.New = func() any {
		return &accum{val: make([]float64, n), seen: make([]bool, n)}
	}
	return ix, nil
}

// SliceRange restricts the parts to postings of documents with
// lo <= ID < hi — the per-range open of the sharded serving topology over
// a mapped state, without re-analyzing a single paper. The term dictionary,
// offsets shape, and norms stay corpus-global (terms whose postings fall
// outside the range keep an empty run, which the query path treats exactly
// like an unindexed term), so a range engine's scores are bit-identical to
// the full build's for its own documents. The returned parts own their
// postings (copied out of the mapped arrays); Terms and Norms stay
// borrowed.
func (p *Parts) SliceRange(lo, hi int) *Parts {
	nTerms := len(p.Terms)
	out := &Parts{
		Terms:   p.Terms,
		Offsets: make([]int32, nTerms+1),
		Norms:   p.Norms,
	}
	for t := 0; t < nTerms; t++ {
		base := int(p.Offsets[t])
		run := p.Docs[base:p.Offsets[t+1]]
		a, _ := slices.BinarySearch(run, corpus.PaperID(lo))
		b, _ := slices.BinarySearch(run, corpus.PaperID(hi))
		out.Docs = append(out.Docs, run[a:b]...)
		out.Weights = append(out.Weights, p.Weights[base+a:base+b]...)
		out.Offsets[t+1] = int32(len(out.Docs))
	}
	return out
}
