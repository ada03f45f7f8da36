package contextset

import (
	"fmt"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// Frozen is the serializable view of a ContextSet: its flat arrays, which
// the state file persists verbatim so FromFrozen can rebind them (typically
// aliasing a memory-mapped file) without O(nnz) work.
type Frozen struct {
	Kind Kind
	// Ctxs holds the non-empty contexts in ascending term-ID order.
	Ctxs []ontology.TermID
	// Offsets delimit member runs: context i's papers are
	// Docs[Offsets[i]:Offsets[i+1]] ascending.
	Offsets []int32
	Docs    []corpus.PaperID
	// Papers is the paper count of the corpus the set was built over:
	// every member is below it. The state file does not store it; its
	// reader takes the index's document count.
	Papers int

	Reps          map[ontology.TermID]corpus.PaperID
	Decay         map[ontology.TermID]float64
	InheritedFrom map[ontology.TermID]ontology.TermID
}

// Freeze returns the set's arrays, shared and read-only.
func (cs *ContextSet) Freeze() *Frozen {
	return &Frozen{
		Kind: cs.kind,
		Ctxs: cs.ctxs, Offsets: cs.offsets, Docs: cs.docs, Papers: cs.papers(),
		Reps: cs.reps, Decay: cs.decay, InheritedFrom: cs.inheritedFrom,
	}
}

// FromFrozen rebuilds a ContextSet over caller-provided flat arrays — the
// zero-copy open path of the state file. The set borrows every slice
// verbatim and never mutates or appends, so mapping-backed (read-only)
// memory is safe; the caller keeps the backing storage alive for the
// set's lifetime. Terms unknown to the ontology are an error — the arrays
// are only valid against the ontology they were built from.
//
// The runs are the set's only membership and index per-request scratch, so
// one O(members) pass requires each to be strictly ascending paper IDs in
// [0, Papers), and builds the paper → context transpose.
func FromFrozen(onto *ontology.Ontology, f *Frozen) (*ContextSet, error) {
	if f == nil {
		return nil, fmt.Errorf("contextset: nil frozen set")
	}
	n := len(f.Ctxs)
	if len(f.Offsets) != n+1 {
		return nil, fmt.Errorf("contextset: %d contexts need %d offsets, have %d", n, n+1, len(f.Offsets))
	}
	if f.Offsets[0] != 0 || int(f.Offsets[n]) != len(f.Docs) {
		return nil, fmt.Errorf("contextset: offsets span [%d, %d), want [0, %d)", f.Offsets[0], f.Offsets[n], len(f.Docs))
	}
	cs := &ContextSet{
		kind:          f.Kind,
		onto:          onto,
		ctxs:          f.Ctxs,
		ord:           make(map[ontology.TermID]int32, n),
		offsets:       f.Offsets,
		docs:          f.Docs,
		reps:          f.Reps,
		decay:         f.Decay,
		inheritedFrom: f.InheritedFrom,
	}
	for i, ctx := range f.Ctxs {
		if onto.Term(ctx) == nil {
			return nil, fmt.Errorf("contextset: frozen set references unknown term %s", ctx)
		}
		if i > 0 && f.Ctxs[i-1] >= ctx {
			return nil, fmt.Errorf("contextset: contexts not strictly ascending at row %d (%s)", i, ctx)
		}
		if f.Offsets[i] > f.Offsets[i+1] || int(f.Offsets[i+1]) > len(f.Docs) {
			return nil, fmt.Errorf("contextset: offsets decrease or overrun at row %d (%s)", i, ctx)
		}
		prev := corpus.PaperID(-1)
		for k, d := range f.Docs[f.Offsets[i]:f.Offsets[i+1]] {
			if d <= prev || int(d) >= f.Papers {
				return nil, fmt.Errorf("contextset: run of %s is not strictly ascending paper IDs in [0, %d) at member %d (paper %d)", ctx, f.Papers, k, d)
			}
			prev = d
		}
		cs.ord[ctx] = int32(i)
	}
	for ctx := range f.Reps {
		if onto.Term(ctx) == nil {
			return nil, fmt.Errorf("contextset: frozen rep references unknown term %s", ctx)
		}
	}
	cs.transpose(f.Papers)
	return cs, nil
}
