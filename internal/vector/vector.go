// Package vector implements the sparse-vector TF-IDF model used by every
// text-similarity computation in the system: section similarities for the
// text-based prestige function, query/paper matching scores, centroid-based
// AC-answer-set expansion, and representative-paper selection.
package vector

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Sparse is a sparse real-valued vector keyed by term. The zero value is an
// empty vector ready for use via the constructor; nil maps are handled by
// all methods.
type Sparse map[string]float64

// New returns an empty sparse vector.
func New() Sparse { return make(Sparse) }

// FromTerms builds a raw term-frequency vector from a token stream. The map
// is sized for the distinct terms a text of that length has, not for its
// tokens: a vocabulary grows about as the square root of the text (Heaps'
// law), and the factor leaves room before the first growth.
func FromTerms(terms []string) Sparse {
	v := make(Sparse, min(len(terms), int(8*math.Sqrt(float64(len(terms))))))
	for _, t := range terms {
		v[t]++
	}
	return v
}

// Clone returns a deep copy of v.
func (v Sparse) Clone() Sparse {
	out := make(Sparse, len(v))
	for k, x := range v {
		out[k] = x
	}
	return out
}

// Add accumulates u into v in place and returns v.
func (v Sparse) Add(u Sparse) Sparse {
	for k, x := range u {
		v[k] += x
	}
	return v
}

// Scale multiplies every component by a in place and returns v.
func (v Sparse) Scale(a float64) Sparse {
	for k := range v {
		v[k] *= a
	}
	return v
}

// Dot returns the inner product of v and u. The products are summed in
// sorted order so the result is bit-for-bit deterministic despite Go's
// randomised map iteration (floating-point addition is not associative;
// without this, identical inputs could differ in the last ulp between
// runs, breaking reproducibility guarantees downstream).
func (v Sparse) Dot(u Sparse) float64 {
	// Iterate over the smaller vector.
	if len(u) < len(v) {
		v, u = u, v
	}
	prods := make([]float64, 0, len(v))
	for k, x := range v {
		if y, ok := u[k]; ok {
			prods = append(prods, x*y)
		}
	}
	return SumSorted(prods)
}

// Norm returns the Euclidean norm of v, deterministically (see Dot).
func (v Sparse) Norm() float64 {
	norm, _ := v.NormWith(nil)
	return norm
}

// NormWith is Norm computing into caller-provided scratch (grown as
// needed and returned for reuse) — the allocation-free form for pooled
// query paths. The squares are summed in exactly Norm's order, so the
// result is bit-for-bit identical.
func (v Sparse) NormWith(buf []float64) (float64, []float64) {
	if cap(buf) < len(v) {
		buf = make([]float64, 0, len(v))
	} else {
		buf = buf[:0]
	}
	for _, x := range v {
		buf = append(buf, x*x)
	}
	return math.Sqrt(SumSorted(buf)), buf
}

// NormOfSquares returns √(Σ sq) with the summands sorted ascending first —
// the exact accumulation Norm uses — for callers that collected the squared
// weights themselves while making another pass over the vector. Sorts sq in
// place.
func NormOfSquares(sq []float64) float64 {
	return math.Sqrt(SumSorted(sq))
}

// SumSorted sums values in ascending order — a deterministic and
// numerically favourable accumulation order, and the one reduction behind
// Dot and Norm: a caller that gathers the same products itself and reduces
// them here gets Dot's result bit for bit. Sorts xs in place.
func SumSorted(xs []float64) float64 {
	if !sortNonNegative(xs) {
		slices.Sort(xs)
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// distCap is the longest run sortNonNegative takes: its bucket counts and
// scatter buffer are fixed-size arrays on the stack. Every run an offline
// build sums is shorter: the longest holds 187 values at 800 papers / 160
// terms, 195 at 4 000 / 400.
const distCap = 256

// insertionMax is the run length up to which a plain insertion sort beats
// the bucket pass.
const insertionMax = 16

// infBits is +Inf's bit pattern. A negative double, −0 included, has the
// sign bit set and +Inf or a NaN has an all-ones exponent, so every value
// sortNonNegative refuses has a pattern at or above this one.
const infBits = 0x7FF0000000000000

// sortNonNegative sorts xs ascending and reports true when xs holds at most
// distCap values, each finite and non-negative other than −0, and no bucket
// of SortByBits is crowded. Otherwise it reports false and leaves xs a
// permutation of its input for slices.Sort. Its scratch lives on the stack,
// declared only for runs that use it; the payload is zero-size, so moving it
// costs nothing.
func sortNonNegative(xs []float64) bool {
	var none, noneBuf [distCap]struct{}
	n := len(xs)
	switch {
	case n > distCap:
		return false
	case n <= insertionMax:
		return SortByBits(xs, none[:n], nil, nil, nil)
	}
	var count [2 * distCap]int32
	var buf [distCap]float64
	return SortByBits(xs, none[:n], count[:], buf[:], noneBuf[:])
}

// SortByBits sorts keys ascending, moving payload[i] wherever it moves
// keys[i], and reports true when every key is finite and non-negative other
// than −0. Otherwise, or when a bucket is crowded (see below), it reports
// false and leaves keys and payload a permutation of their input, still
// paired, for a comparison sort to finish. payload must be as long as keys.
// Unless len(keys) ≤ 16, the scratch count must hold 2·len(keys) entries,
// all zero on entry (they are left dirty), and kbuf and pbuf len(keys).
//
// For those keys the IEEE-754 bit patterns, read as uint64, order exactly
// like the values (the exponent field sits above the mantissa, and both grow
// with the value), and two patterns that differ are two values that differ.
// So the keys have one ascending order, the one slices.Sort produces, and it
// can be found on the bits: one counting pass scatters the keys, in order,
// into 2^⌈log₂(n+1)⌉ buckets — between n and 2n — over the high bits of
// bits−min, and an insertion sort then moves each key only within its
// bucket. A crowded bucket (keys within a few ulps of each other) would make
// that insertion sort quadratic, so once it has moved keys more than 2n
// places in total it gives up. Up to 16 keys a plain insertion sort is
// faster than the bucket pass.
func SortByBits[P any](keys []float64, payload []P, count []int32, kbuf []float64, pbuf []P) bool {
	n := len(keys)
	payload = payload[:n]
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, x := range keys {
		b := math.Float64bits(x)
		lo, hi = min(lo, b), max(hi, b)
	}
	if hi >= infBits {
		return false
	}
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			v, p, j := keys[i], payload[i], i
			for ; j > 0 && keys[j-1] > v; j-- {
				keys[j], payload[j] = keys[j-1], payload[j-1]
			}
			keys[j], payload[j] = v, p
		}
		return true
	}
	logB := bits.Len(uint(n))
	shift := max(bits.Len64(hi-lo)-logB, 0)
	count = count[:1<<logB]
	for _, x := range keys {
		count[(math.Float64bits(x)-lo)>>shift]++
	}
	var start int32
	for k, c := range count {
		count[k] = start
		start += c
	}
	kbuf, pbuf = kbuf[:n], pbuf[:n]
	for i, x := range keys {
		k := (math.Float64bits(x) - lo) >> shift
		kbuf[count[k]], pbuf[count[k]] = x, payload[i]
		count[k]++
	}
	moves := 0
	for i, v := range kbuf {
		p, j := pbuf[i], i
		for ; j > 0 && keys[j-1] > v; j-- {
			keys[j], payload[j] = keys[j-1], payload[j-1]
		}
		keys[j], payload[j] = v, p
		if moves += i - j; moves > 2*n {
			copy(keys[i+1:], kbuf[i+1:])
			copy(payload[i+1:], pbuf[i+1:])
			return false
		}
	}
	return true
}

// Cosine returns the cosine similarity between v and u in [0,1] for
// non-negative vectors; 0 when either vector is empty or zero.
func Cosine(v, u Sparse) float64 {
	return CosineWithNorms(v, u, v.Norm(), u.Norm())
}

// CosineWithNorms is Cosine with precomputed norms — the hot-path variant
// for callers that compare one vector against many (norm computation would
// otherwise dominate).
func CosineWithNorms(v, u Sparse, nv, nu float64) float64 {
	if nv == 0 || nu == 0 {
		return 0
	}
	return v.Dot(u) / (nv * nu)
}

// Centroid returns the arithmetic mean of the given vectors; nil if the
// input is empty.
func Centroid(vs []Sparse) Sparse {
	if len(vs) == 0 {
		return nil
	}
	c := New()
	for _, v := range vs {
		c.Add(v)
	}
	return c.Scale(1 / float64(len(vs)))
}

// TopTerms returns the k highest-weighted terms of v in descending weight
// order, ties broken lexicographically for determinism.
func (v Sparse) TopTerms(k int) []string {
	type tw struct {
		t string
		w float64
	}
	all := make([]tw, 0, len(v))
	for t, w := range v {
		all = append(all, tw{t, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].t < all[j].t
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].t
	}
	return out
}
