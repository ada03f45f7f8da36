package prestige

import (
	"fmt"
	"slices"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/ontology"
)

// FromColumn binds a score column over a context set — the zero-copy open
// path of the state file, where the slices alias a memory-mapped file. ctxs
// lists the scored contexts, vals holds one score per member of cs (in the
// set's member order). The matrix borrows the slices verbatim: it never
// mutates, appends to, or retains a grown copy of any argument, so
// mapping-backed (read-only) memory is safe. The caller must keep the
// backing storage alive for the lifetime of the matrix.
//
// Invariants checked: len(vals) is the set's member count, and ctxs strictly
// ascending (the order Score lays out) and each a context of the set.
// Checks are O(rows · log contexts), never O(nnz): per-element content is
// the writer's contract, guarded on disk by the section CRCs — scanning it
// here would fault in every page and defeat the O(1) open.
func FromColumn(cs *contextset.ContextSet, ctxs []ontology.TermID, vals []float64) (*Matrix, error) {
	f := cs.Freeze()
	if len(vals) != len(f.Docs) {
		return nil, fmt.Errorf("prestige: %d scores vs %d context-set members", len(vals), len(f.Docs))
	}
	spans := make([]span, len(ctxs))
	for i, ctx := range ctxs {
		if i > 0 && ctxs[i-1] >= ctx {
			return nil, fmt.Errorf("prestige: contexts not strictly ascending at row %d (%q)", i, ctx)
		}
		j, ok := slices.BinarySearch(f.Ctxs, ctx)
		if !ok {
			return nil, fmt.Errorf("prestige: scored context %q is not in the context set", ctx)
		}
		spans[i] = span{f.Offsets[j], f.Offsets[j+1]}
	}
	return newMatrix(cs, ctxs, spans, vals), nil
}

// Column exposes the matrix's scored contexts and score column for
// serialization; the column's membership is ContextSet's. The slices alias
// the matrix — read-only.
func (m *Matrix) Column() (ctxs []ontology.TermID, vals []float64) {
	return m.ctxs, m.vals
}
