package prestige

import (
	"sort"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// Matrix is the frozen, query-time form of Scores: a CSR (compressed sparse
// row) score matrix with one row per scored context. Contexts are interned
// into ordinals (sorted by term ID), each row is a packed run of
// paper-ID-sorted (doc, score) columns, and a per-context offset array
// delimits the runs — mirroring the index's postings layout. The query
// merge reads one run per selected context and resolves each hit by binary
// search over the run's int32 doc IDs, instead of chaining a string-keyed
// and an int-keyed map lookup per (context, hit) pair.
//
// A Matrix is immutable and safe for concurrent readers. Construct with
// Scores.Freeze; the map form remains the construction-time builder and the
// Scorer.ScoreContext boundary.
type Matrix struct {
	ctxs    []ontology.TermID
	ord     map[ontology.TermID]int32
	offsets []int32 // len(ctxs)+1; run i is [offsets[i], offsets[i+1])
	docs    []int32
	vals    []float64
	// rowMax[i] is the largest score in run i (0 for an empty run) — the
	// per-context prestige upper bound the search layer's top-k pruning
	// reads. Persisted in the state file.
	rowMax []float64
}

// Freeze flattens the map form into its CSR matrix. The layout is fully
// deterministic: contexts in ascending term-ID order, each run in ascending
// paper-ID order, scores byte-identical to the map's values.
func (s Scores) Freeze() *Matrix {
	ctxs := s.Contexts()
	m := &Matrix{
		ctxs:    ctxs,
		ord:     make(map[ontology.TermID]int32, len(ctxs)),
		offsets: make([]int32, len(ctxs)+1),
	}
	nnz := 0
	for _, ctx := range ctxs {
		nnz += len(s[ctx])
	}
	m.docs = make([]int32, 0, nnz)
	m.vals = make([]float64, 0, nnz)
	m.rowMax = make([]float64, len(ctxs))
	var row []int32
	for i, ctx := range ctxs {
		m.ord[ctx] = int32(i)
		src := s[ctx]
		row = row[:0]
		for id := range src {
			row = append(row, int32(id))
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		for _, id := range row {
			v := src[corpus.PaperID(id)]
			m.docs = append(m.docs, id)
			m.vals = append(m.vals, v)
			if v > m.rowMax[i] {
				m.rowMax[i] = v
			}
		}
		m.offsets[i+1] = int32(len(m.docs))
	}
	return m
}

// NumContexts returns the number of scored contexts (rows).
func (m *Matrix) NumContexts() int { return len(m.ctxs) }

// Contexts returns the scored contexts sorted by term ID (a copy).
func (m *Matrix) Contexts() []ontology.TermID {
	return append([]ontology.TermID(nil), m.ctxs...)
}

// Run is one context's packed score row: Docs ascending, Vals parallel.
// The slices alias the matrix — read-only. Max is the largest value in
// Vals (0 for an empty run), the row's prestige upper bound.
type Run struct {
	Docs []int32
	Vals []float64
	Max  float64
}

// Get returns the score of a paper in the run (0 when absent) by binary
// search over the sorted doc IDs.
func (r Run) Get(p corpus.PaperID) float64 {
	d := int32(p)
	lo, hi := 0, len(r.Docs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.Docs[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.Docs) && r.Docs[lo] == d {
		return r.Vals[lo]
	}
	return 0
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
	lo, hi := m.offsets[i], m.offsets[i+1]
	return Run{Docs: m.docs[lo:hi], Vals: m.vals[lo:hi], Max: m.rowMax[i]}
}

// Get returns the score of a paper in a context (0 when absent), matching
// Scores.Get on the frozen input exactly.
func (m *Matrix) Get(ctx ontology.TermID, p corpus.PaperID) float64 {
	return m.Run(ctx).Get(p)
}

// Slice restricts the matrix to papers with lo <= ID < hi — the per-shard
// prestige state of the sharded serving topology. Every context row is
// kept (possibly empty), so Contexts() — and therefore the engine's
// context-selection metadata, which is built from it — is unchanged: all
// shards select exactly the contexts a single engine would. Within each
// run only the docs in range survive, and the row maximum is recomputed
// over the slice, giving the shard a tighter (still exact, for its own
// papers) prestige upper bound for threshold and top-k pruning.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	out := &Matrix{
		ctxs:    m.ctxs,
		ord:     m.ord,
		offsets: make([]int32, len(m.ctxs)+1),
		rowMax:  make([]float64, len(m.ctxs)),
	}
	dlo, dhi := int32(lo), int32(hi)
	for i := range m.ctxs {
		r := m.RunAt(i)
		// Docs are sorted ascending: binary-search the range bounds.
		a := searchInt32(r.Docs, dlo)
		b := searchInt32(r.Docs, dhi)
		for k := a; k < b; k++ {
			out.docs = append(out.docs, r.Docs[k])
			out.vals = append(out.vals, r.Vals[k])
			if v := r.Vals[k]; v > out.rowMax[i] {
				out.rowMax[i] = v
			}
		}
		out.offsets[i+1] = int32(len(out.docs))
	}
	return out
}

// searchInt32 returns the first index of s whose value is >= v (len(s)
// when none is).
func searchInt32(s []int32, v int32) int {
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

// Thaw reconstructs the map form (for code paths that still build on it,
// e.g. the naive reference search). Freeze(Thaw(m)) is the identity.
func (m *Matrix) Thaw() Scores {
	out := make(Scores, len(m.ctxs))
	for i, ctx := range m.ctxs {
		r := m.RunAt(i)
		row := make(map[corpus.PaperID]float64, len(r.Docs))
		for j, d := range r.Docs {
			row[corpus.PaperID(d)] = r.Vals[j]
		}
		out[ctx] = row
	}
	return out
}
