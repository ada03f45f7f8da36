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
	// Docs[Offsets[i]:Offsets[i+1]] ascending, Scores parallel.
	Offsets []int32
	Docs    []corpus.PaperID
	Scores  []float64
	// WordOffsets delimit bitmap runs: context i's membership bitset.Set is
	// Words[WordOffsets[i]:WordOffsets[i+1]].
	WordOffsets []int32
	Words       []uint64

	Reps          map[ontology.TermID]corpus.PaperID
	Decay         map[ontology.TermID]float64
	InheritedFrom map[ontology.TermID]ontology.TermID
}

// Freeze returns the set's arrays, shared and read-only.
func (cs *ContextSet) Freeze() *Frozen {
	return &Frozen{
		Kind: cs.kind,
		Ctxs: cs.ctxs, Offsets: cs.offsets, Docs: cs.docs, Scores: cs.scores,
		WordOffsets: cs.wordOff, Words: cs.words,
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
// Validation is O(contexts), never O(nnz): per-element run content is the
// writer's contract, guarded on disk by section CRCs.
func FromFrozen(onto *ontology.Ontology, f *Frozen) (*ContextSet, error) {
	if f == nil {
		return nil, fmt.Errorf("contextset: nil frozen set")
	}
	n := len(f.Ctxs)
	if len(f.Offsets) != n+1 || len(f.WordOffsets) != n+1 {
		return nil, fmt.Errorf("contextset: %d contexts need %d offsets, have %d/%d",
			n, n+1, len(f.Offsets), len(f.WordOffsets))
	}
	if len(f.Docs) != len(f.Scores) {
		return nil, fmt.Errorf("contextset: %d docs vs %d scores", len(f.Docs), len(f.Scores))
	}
	if f.Offsets[0] != 0 || int(f.Offsets[n]) != len(f.Docs) {
		return nil, fmt.Errorf("contextset: offsets span [%d, %d), want [0, %d)", f.Offsets[0], f.Offsets[n], len(f.Docs))
	}
	if f.WordOffsets[0] != 0 || int(f.WordOffsets[n]) != len(f.Words) {
		return nil, fmt.Errorf("contextset: word offsets span [%d, %d), want [0, %d)", f.WordOffsets[0], f.WordOffsets[n], len(f.Words))
	}
	cs := &ContextSet{
		kind:          f.Kind,
		onto:          onto,
		ctxs:          f.Ctxs,
		ord:           make(map[ontology.TermID]int32, n),
		offsets:       f.Offsets,
		docs:          f.Docs,
		scores:        f.Scores,
		wordOff:       f.WordOffsets,
		words:         f.Words,
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
		if f.Offsets[i] > f.Offsets[i+1] || f.WordOffsets[i] > f.WordOffsets[i+1] {
			return nil, fmt.Errorf("contextset: offsets decrease at row %d (%s)", i, ctx)
		}
		cs.ord[ctx] = int32(i)
	}
	for ctx := range f.Reps {
		if onto.Term(ctx) == nil {
			return nil, fmt.Errorf("contextset: frozen rep references unknown term %s", ctx)
		}
	}
	return cs, nil
}
