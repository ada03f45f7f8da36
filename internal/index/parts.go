package index

import (
	"fmt"

	"ctxsearch/internal/corpus"
)

// Parts is the serializable flat form of an Index: the term dictionary plus
// the CSR postings and the per-term MaxScore maxima. It is
// what the state file persists so that serving can skip corpus
// re-analysis and index construction entirely — FromParts rebinds these
// arrays (typically aliasing a memory-mapped file) to a live Index in
// O(terms), never touching a posting.
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
	// Per-term MaxScore bounds (see topk.go).
	MaxWeight []float64
	MaxRatio  []float64
	// Block-max tables (see topk.go), required: term t's posting run is
	// partitioned into blocks of BlockSize postings, its blocks occupying
	// BlockMaxWeight[BlockOffsets[t]:BlockOffsets[t+1]] (and likewise
	// BlockMaxRatio).
	BlockSize      int
	BlockOffsets   []int32
	BlockMaxWeight []float64
	BlockMaxRatio  []float64
}

// Parts exposes the index's flat arrays for serialization. All slices alias
// the index or its analyzer and are read-only.
func (ix *Index) Parts() *Parts {
	return &Parts{
		Terms:          ix.analyzer.DF().Terms(),
		Offsets:        ix.offsets,
		Docs:           ix.docs,
		Weights:        ix.weights,
		Norms:          ix.norms,
		MaxWeight:      ix.maxWeight,
		MaxRatio:       ix.maxRatio,
		BlockSize:      ix.blockSize,
		BlockOffsets:   ix.blockOffsets,
		BlockMaxWeight: ix.blockMaxWeight,
		BlockMaxRatio:  ix.blockMaxRatio,
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
// Validation is O(terms): lengths, offset monotonicity, the dictionary, and
// the block tables' shape (parts without block tables are rejected).
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
	if len(p.MaxWeight) != nTerms || len(p.MaxRatio) != nTerms {
		return nil, fmt.Errorf("index: %d terms vs %d/%d maxima", nTerms, len(p.MaxWeight), len(p.MaxRatio))
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
		analyzer:  a,
		offsets:   p.Offsets,
		docs:      p.Docs,
		weights:   p.Weights,
		norms:     p.Norms,
		maxWeight: p.MaxWeight,
		maxRatio:  p.MaxRatio,
	}
	// Block tables: validate shape in O(terms) and borrow the (typically
	// mapped) arrays verbatim, like every other column.
	if p.BlockSize <= 0 {
		return nil, fmt.Errorf("index: block tables with non-positive block size %d", p.BlockSize)
	}
	if len(p.BlockOffsets) != nTerms+1 || p.BlockOffsets[0] != 0 {
		return nil, fmt.Errorf("index: %d terms need %d block offsets starting at 0, have %d", nTerms, nTerms+1, len(p.BlockOffsets))
	}
	bs := int32(p.BlockSize)
	for t := 0; t < nTerms; t++ {
		run := p.Offsets[t+1] - p.Offsets[t]
		want := (run + bs - 1) / bs
		if p.BlockOffsets[t+1]-p.BlockOffsets[t] != want {
			return nil, fmt.Errorf("index: term %d has %d postings, wants %d blocks of %d, has %d",
				t, run, want, bs, p.BlockOffsets[t+1]-p.BlockOffsets[t])
		}
	}
	nb := int(p.BlockOffsets[nTerms])
	if len(p.BlockMaxWeight) != nb || len(p.BlockMaxRatio) != nb {
		return nil, fmt.Errorf("index: %d blocks vs %d/%d block maxima", nb, len(p.BlockMaxWeight), len(p.BlockMaxRatio))
	}
	ix.blockSize = p.BlockSize
	ix.blockOffsets = p.BlockOffsets
	ix.blockMaxWeight = p.BlockMaxWeight
	ix.blockMaxRatio = p.BlockMaxRatio
	n := len(p.Norms)
	ix.accPool.New = func() any {
		return &accum{val: make([]float64, n), seen: make([]bool, n)}
	}
	return ix, nil
}

// SliceRange restricts the parts to postings of documents with
// lo <= ID < hi — the per-range open of the sharded serving topology over
// a mapped state, without re-analyzing a single paper. The term dictionary, offsets shape, and norms stay
// corpus-global (terms whose postings fall outside the range keep an empty
// run, which the query path treats exactly like an unindexed term), so a
// range engine's scores are bit-identical to the full build's for its own
// documents. Per-term maxima are recomputed over the surviving postings,
// matching a range build's tighter in-range MaxScore bounds; block-max
// tables are likewise rebuilt at the source's block size over the re-sliced
// runs — each range block's maxima are exactly the maxima of the postings
// it covers, never inherited from the (differently partitioned) source
// blocks. The returned parts own their postings (copied out of the mapped
// arrays); Terms and Norms stay borrowed.
func (p *Parts) SliceRange(lo, hi int) *Parts {
	nTerms := len(p.Terms)
	out := &Parts{
		Terms:     p.Terms,
		Offsets:   make([]int32, nTerms+1),
		Norms:     p.Norms,
		MaxWeight: make([]float64, nTerms),
		MaxRatio:  make([]float64, nTerms),
	}
	dlo, dhi := corpus.PaperID(lo), corpus.PaperID(hi)
	for t := 0; t < nTerms; t++ {
		run := p.Docs[p.Offsets[t]:p.Offsets[t+1]]
		a := int(p.Offsets[t]) + searchPaperID(run, dlo)
		b := int(p.Offsets[t]) + searchPaperID(run, dhi)
		var mw, mr float64
		for k := a; k < b; k++ {
			w := p.Weights[k]
			out.Docs = append(out.Docs, p.Docs[k])
			out.Weights = append(out.Weights, w)
			if w > mw {
				mw = w
			}
			if dn := p.Norms[p.Docs[k]]; dn > 0 {
				if r := w / dn; r > mr {
					mr = r
				}
			}
		}
		out.Offsets[t+1] = int32(len(out.Docs))
		out.MaxWeight[t], out.MaxRatio[t] = mw, mr
	}
	out.BlockSize = p.BlockSize
	out.BlockOffsets, out.BlockMaxWeight, out.BlockMaxRatio =
		computeBlockTables(out.Offsets, out.Docs, out.Weights, p.Norms, p.BlockSize, 1)
	return out
}

// searchPaperID returns the first index of s whose value is >= v (len(s)
// when none is).
func searchPaperID(s []corpus.PaperID, v corpus.PaperID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
