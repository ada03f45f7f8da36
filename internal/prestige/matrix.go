package prestige

import (
	"slices"
	"sort"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// Matrix holds the prestige scores of a context set: a score column that
// runs parallel to the set's member array, one slot per member. A matrix
// has no membership of its own. Each scored context (a row, ascending by
// term ID) spans [lo, hi) of the set's members, so a row's docs are the
// set's run and its scores the column's slots over the same span. The
// slots of a context the scorer declined or left out as too small are 0
// and belong to no row. The query merge reads one run per selected context
// and resolves each hit by binary search over the run's paper IDs.
//
// A Matrix is immutable and safe for concurrent readers. Score builds one,
// PropagateMax derives the propagated one, Slice a shard's, and FromColumn
// binds a state file's.
type Matrix struct {
	cs   *contextset.ContextSet
	docs []corpus.PaperID // the set's member array
	ctxs []ontology.TermID
	ord  map[ontology.TermID]int32
	// spans[i] delimits row i's members in docs and its slots in vals.
	spans []span
	vals  []float64 // len(docs)
}

// span is a row's [lo, hi) range of the set's members.
type span struct{ lo, hi int32 }

// newMatrix binds rows over cs's members. The slices are kept, not copied.
func newMatrix(cs *contextset.ContextSet, ctxs []ontology.TermID, spans []span, vals []float64) *Matrix {
	m := &Matrix{
		cs:    cs,
		docs:  cs.Freeze().Docs,
		ctxs:  ctxs,
		ord:   make(map[ontology.TermID]int32, len(ctxs)),
		spans: spans,
		vals:  vals,
	}
	for i, ctx := range ctxs {
		m.ord[ctx] = int32(i)
	}
	return m
}

// Freeze returns m.
//
// Deprecated: a Matrix is the only form scores take; call sites have
// nothing to freeze.
func (m *Matrix) Freeze() *Matrix { return m }

// ContextSet returns the context set the matrix scores: the membership
// every run reads.
func (m *Matrix) ContextSet() *contextset.ContextSet { return m.cs }

// NumContexts returns the number of scored contexts (rows).
func (m *Matrix) NumContexts() int { return len(m.ctxs) }

// Contexts returns the scored contexts sorted by term ID (a copy).
func (m *Matrix) Contexts() []ontology.TermID {
	return append([]ontology.TermID(nil), m.ctxs...)
}

// Run is one context's packed score row: Docs ascending, Vals parallel.
// The slices alias the matrix and its context set — read-only.
type Run struct {
	Docs []corpus.PaperID
	Vals []float64
}

// Get returns the score of a paper in the run (0 when absent) by binary
// search over the sorted doc IDs.
func (r Run) Get(p corpus.PaperID) float64 {
	if i, ok := slices.BinarySearch(r.Docs, p); ok {
		return r.Vals[i]
	}
	return 0
}

// TopK returns the IDs of the run's k highest-scored papers, by value
// descending, then ID ascending. Papers tied with the k-th score are all
// included, per the paper's §2 definition of the top-k overlapping ratio
// denominator.
func (r Run) TopK(k int) []corpus.PaperID {
	if k <= 0 || len(r.Docs) == 0 {
		return nil
	}
	idx := make([]int, len(r.Docs))
	for i := range idx {
		idx[i] = i
	}
	// Docs ascend, so a stable sort by value leaves ties in ID order.
	sort.SliceStable(idx, func(a, b int) bool { return r.Vals[idx[a]] > r.Vals[idx[b]] })
	k = min(k, len(idx))
	cutoff := r.Vals[idx[k-1]]
	out := make([]corpus.PaperID, 0, k)
	for _, i := range idx {
		if r.Vals[i] < cutoff {
			break
		}
		out = append(out, r.Docs[i])
	}
	return out
}

// Run returns a context's score row (an empty run when unscored).
func (m *Matrix) Run(ctx ontology.TermID) Run {
	i, ok := m.ord[ctx]
	if !ok {
		return Run{}
	}
	return m.RunAt(int(i))
}

// RunAt returns the score row of the i-th context (Contexts order).
func (m *Matrix) RunAt(i int) Run {
	s := m.spans[i]
	return Run{Docs: m.docs[s.lo:s.hi], Vals: m.vals[s.lo:s.hi]}
}

// Get returns the score of a paper in a context (0 when absent).
func (m *Matrix) Get(ctx ontology.TermID, p corpus.PaperID) float64 {
	return m.Run(ctx).Get(p)
}

// Slice restricts the matrix to papers with lo <= ID < hi — the per-shard
// prestige state of the sharded serving topology. Every context row is
// kept (possibly empty), so Contexts() — and therefore the engine's
// context-selection metadata, which is built from it — is unchanged: all
// shards select exactly the contexts a single engine would. The slice
// shares the set, its members and the score column; only each row's span
// narrows to its papers in range.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	spans := make([]span, len(m.spans))
	for i, s := range m.spans {
		// Docs are sorted ascending: binary-search the range bounds.
		run := m.docs[s.lo:s.hi]
		a, _ := slices.BinarySearch(run, corpus.PaperID(lo))
		b, _ := slices.BinarySearch(run, corpus.PaperID(hi))
		spans[i] = span{s.lo + int32(a), s.lo + int32(max(a, b))}
	}
	out := *m
	out.spans = spans
	return &out
}
