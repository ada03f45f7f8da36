package prestige

import (
	"sort"

	"ctxsearch/internal/corpus"
	"ctxsearch/internal/ontology"
)

// Matrix holds the prestige scores of a context set: a CSR (compressed
// sparse row) score matrix with one row per scored context. Contexts are
// interned into ordinals (sorted by term ID), each row is a packed run of
// paper-ID-sorted (doc, score) columns, and a per-context offset array
// delimits the runs — mirroring the index's postings layout. The query
// merge reads one run per selected context and resolves each hit by binary
// search over the run's int32 doc IDs.
//
// A Matrix is immutable and safe for concurrent readers. Score builds one,
// PropagateMax derives the propagated one, and FromCSR binds a state
// file's.
type Matrix struct {
	ctxs    []ontology.TermID
	ord     map[ontology.TermID]int32
	offsets []int32 // len(ctxs)+1; run i is [offsets[i], offsets[i+1])
	docs    []int32
	vals    []float64
	// rowMax[i] is the largest score in run i (0 for an empty run), the
	// row's prestige upper bound. Persisted in the state file.
	rowMax []float64
}

// rowMaxima returns the largest value of each run delimited by offsets (0
// for an empty or all-negative run).
func rowMaxima(offsets []int32, vals []float64) []float64 {
	out := make([]float64, len(offsets)-1)
	for i := range out {
		for _, v := range vals[offsets[i]:offsets[i+1]] {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// Freeze returns m.
//
// Deprecated: a Matrix is the only form scores take; call sites have
// nothing to freeze.
func (m *Matrix) Freeze() *Matrix { return m }

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
		out = append(out, corpus.PaperID(r.Docs[i]))
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
	lo, hi := m.offsets[i], m.offsets[i+1]
	return Run{Docs: m.docs[lo:hi], Vals: m.vals[lo:hi], Max: m.rowMax[i]}
}

// Get returns the score of a paper in a context (0 when absent).
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
