package prestige

import (
	"fmt"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// FromCSR constructs a Matrix directly over caller-provided CSR arrays —
// the zero-copy open path of the state file, where the slices alias a
// memory-mapped file. The matrix borrows them verbatim: it never mutates,
// appends to, or retains a grown copy of any argument, so mapping-backed
// (read-only) memory is safe. The caller must keep the backing storage
// alive for the lifetime of the matrix.
//
// Invariants checked: ctxs strictly ascending (the order Score lays out),
// offsets monotone non-decreasing with len(ctxs)+1 entries starting at 0
// and ending at len(docs), docs/vals/rowMax lengths consistent. Checks are O(rows),
// never O(nnz): per-element content (e.g. ascending doc IDs within a run)
// is the writer's contract, guarded on disk by the section CRCs — scanning
// it here would fault in every page and defeat the O(1) open. Row maxima
// are trusted as given (the writer persists the values the build computed).
func FromCSR(ctxs []ontology.TermID, offsets []int32, docs []corpus.PaperID, vals, rowMax []float64) (*Matrix, error) {
	if len(offsets) != len(ctxs)+1 {
		return nil, fmt.Errorf("prestige: %d contexts need %d offsets, have %d", len(ctxs), len(ctxs)+1, len(offsets))
	}
	if len(docs) != len(vals) {
		return nil, fmt.Errorf("prestige: %d docs vs %d vals", len(docs), len(vals))
	}
	if len(rowMax) != len(ctxs) {
		return nil, fmt.Errorf("prestige: %d contexts vs %d row maxima", len(ctxs), len(rowMax))
	}
	if len(ctxs) > 0 && (offsets[0] != 0 || int(offsets[len(ctxs)]) != len(docs)) {
		return nil, fmt.Errorf("prestige: offsets span [%d, %d), want [0, %d)", offsets[0], offsets[len(ctxs)], len(docs))
	}
	if len(ctxs) == 0 && len(docs) != 0 {
		return nil, fmt.Errorf("prestige: %d docs with no contexts", len(docs))
	}
	m := &Matrix{
		ctxs:    ctxs,
		ord:     make(map[ontology.TermID]int32, len(ctxs)),
		offsets: offsets,
		docs:    docs,
		vals:    vals,
		rowMax:  rowMax,
	}
	for i, ctx := range ctxs {
		if i > 0 && ctxs[i-1] >= ctx {
			return nil, fmt.Errorf("prestige: contexts not strictly ascending at row %d (%q)", i, ctx)
		}
		if offsets[i] > offsets[i+1] {
			return nil, fmt.Errorf("prestige: offsets decrease at row %d (%q)", i, ctx)
		}
		m.ord[ctx] = int32(i)
	}
	return m, nil
}

// CSR exposes the matrix's raw arrays for serialization. The slices alias
// the matrix — read-only.
func (m *Matrix) CSR() (ctxs []ontology.TermID, offsets []int32, docs []corpus.PaperID, vals, rowMax []float64) {
	return m.ctxs, m.offsets, m.docs, m.vals, m.rowMax
}
