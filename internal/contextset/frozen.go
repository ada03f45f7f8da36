package contextset

import (
	"fmt"
	"sort"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// Frozen is the flat, serializable form of a ContextSet: member runs in
// CSR layout (context rows sorted by term ID, each run's papers ascending)
// plus each context's membership bitmap as packed word runs — exactly the
// two representations the query hot path reads. The state file persists
// these arrays verbatim so FromFrozen can rebind them (typically aliasing a
// memory-mapped file) without O(nnz) map inserts.
type Frozen struct {
	Kind Kind
	// Ctxs holds the non-empty contexts in ascending term-ID order.
	Ctxs []ontology.TermID
	// Offsets delimit member runs: context i's papers are
	// Docs[Offsets[i]:Offsets[i+1]] ascending, Scores parallel.
	Offsets []int32
	Docs    []corpus.PaperID
	Scores  []float64
	// WordOffsets delimit bitmap runs: context i's membership bitset is
	// Words[WordOffsets[i]:WordOffsets[i+1]], the exact bitset.Set the lazy
	// PaperBitset cache would build.
	WordOffsets []int32
	Words       []uint64

	Reps          map[ontology.TermID]corpus.PaperID
	Decay         map[ontology.TermID]float64
	InheritedFrom map[ontology.TermID]ontology.TermID
}

// frozenSet is the borrowed-slice backing of a frozen ContextSet. The
// slices are never mutated or appended to, so mapping-backed (read-only)
// memory is safe.
type frozenSet struct {
	ctxs    []ontology.TermID
	ord     map[ontology.TermID]int32
	offsets []int32
	docs    []corpus.PaperID
	scores  []float64
	wordOff []int32
	words   []uint64
}

// run returns the member run of the i-th context.
func (f *frozenSet) run(i int32) ([]corpus.PaperID, []float64) {
	lo, hi := f.offsets[i], f.offsets[i+1]
	return f.docs[lo:hi], f.scores[lo:hi]
}

// bits returns the membership bitset of the i-th context (aliasing the
// frozen words — callers must not modify, same contract as PaperBitset).
func (f *frozenSet) bits(i int32) bitset.Set {
	return bitset.Set(f.words[f.wordOff[i]:f.wordOff[i+1]])
}

// Freeze flattens the set into its serializable form. The layout is fully
// deterministic: contexts ascending by term ID, runs ascending by paper
// ID, scores byte-identical to the map's values, bitmap runs identical to
// what the lazy PaperBitset cache builds. On an already-frozen set the
// arrays are returned as-is (shared, read-only).
func (cs *ContextSet) Freeze() *Frozen {
	if f := cs.frozen; f != nil {
		return &Frozen{
			Kind: cs.kind,
			Ctxs: f.ctxs, Offsets: f.offsets, Docs: f.docs, Scores: f.scores,
			WordOffsets: f.wordOff, Words: f.words,
			Reps: cs.reps, Decay: cs.decay, InheritedFrom: cs.inheritedFrom,
		}
	}
	ctxs := cs.Contexts()
	out := &Frozen{
		Kind:          cs.kind,
		Ctxs:          ctxs,
		Offsets:       make([]int32, len(ctxs)+1),
		WordOffsets:   make([]int32, len(ctxs)+1),
		Reps:          cs.reps,
		Decay:         cs.decay,
		InheritedFrom: cs.inheritedFrom,
	}
	nnz := 0
	for _, ctx := range ctxs {
		nnz += len(cs.members[ctx])
	}
	out.Docs = make([]corpus.PaperID, 0, nnz)
	out.Scores = make([]float64, 0, nnz)
	for i, ctx := range ctxs {
		m := cs.members[ctx]
		run := make([]corpus.PaperID, 0, len(m))
		for id := range m {
			run = append(run, id)
		}
		sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
		var b bitset.Set
		for _, id := range run {
			out.Docs = append(out.Docs, id)
			out.Scores = append(out.Scores, m[id].score)
			b.Add(int(id))
		}
		out.Words = append(out.Words, b...)
		out.Offsets[i+1] = int32(len(out.Docs))
		out.WordOffsets[i+1] = int32(len(out.Words))
	}
	return out
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
	fs := &frozenSet{
		ctxs:    f.Ctxs,
		ord:     make(map[ontology.TermID]int32, n),
		offsets: f.Offsets,
		docs:    f.Docs,
		scores:  f.Scores,
		wordOff: f.WordOffsets,
		words:   f.Words,
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
		fs.ord[ctx] = int32(i)
	}
	for ctx := range f.Reps {
		if onto.Term(ctx) == nil {
			return nil, fmt.Errorf("contextset: frozen rep references unknown term %s", ctx)
		}
	}
	cs := &ContextSet{
		kind:          f.Kind,
		onto:          onto,
		frozen:        fs,
		reps:          orEmptyPapers(f.Reps),
		decay:         orEmptyDecay(f.Decay),
		inheritedFrom: orEmptyTerms(f.InheritedFrom),
	}
	return cs, nil
}

func orEmptyPapers(m map[ontology.TermID]corpus.PaperID) map[ontology.TermID]corpus.PaperID {
	if m == nil {
		return make(map[ontology.TermID]corpus.PaperID)
	}
	return m
}

func orEmptyDecay(m map[ontology.TermID]float64) map[ontology.TermID]float64 {
	if m == nil {
		return make(map[ontology.TermID]float64)
	}
	return m
}

func orEmptyTerms(m map[ontology.TermID]ontology.TermID) map[ontology.TermID]ontology.TermID {
	if m == nil {
		return make(map[ontology.TermID]ontology.TermID)
	}
	return m
}
