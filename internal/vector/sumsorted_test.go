package vector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// buildLikeRun draws n values the way an offline build's cosine products
// fall: positive, spread over 4–8 binades (the exponent span of most runs
// one 800-paper / 160-term build sums), about one in fifty repeating an
// earlier value.
func buildLikeRun(rng *rand.Rand, n int) []float64 {
	span := 4 + 4*rng.Float64()
	xs := make([]float64, n)
	for i := range xs {
		if i > 0 && rng.Intn(50) == 0 {
			xs[i] = xs[rng.Intn(i)]
			continue
		}
		xs[i] = 0.9 * math.Exp2(-span*rng.Float64())
	}
	return xs
}

// crowdedRun is the bucket pass's worst case: distCap−1 values within a few
// ulps of each other and one far outlier, so every value but one shares a
// bucket.
func crowdedRun(rng *rand.Rand) []float64 {
	base := math.Float64bits(0.3)
	xs := make([]float64, distCap)
	for i := range xs {
		xs[i] = math.Float64frombits(base + uint64(rng.Intn(8)))
	}
	xs[rng.Intn(distCap)] = 1e300
	return xs
}

// twoCrowdsRun alternates between two values' few-ulp neighbourhoods, so the
// bucket pass regroups the run into two crowded buckets and gives up while
// sorting the first.
func twoCrowdsRun(rng *rand.Rand) []float64 {
	xs := make([]float64, 200)
	for i := range xs {
		base := math.Float64bits(0.3)
		if i%2 == 1 {
			base = math.Float64bits(0.6)
		}
		xs[i] = math.Float64frombits(base + uint64(rng.Intn(8)))
	}
	return xs
}

// signedZerosRun is 40 powers of two over 2 000 binades, out of order, with
// −0 ahead of +0: few enough to a bucket that, were −0's bit pattern
// admitted, the bucket pass would sort the run itself and put −0 after +0
// and every positive value.
func signedZerosRun() []float64 {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = math.Ldexp(1, -1000+50*((i*17)%40))
	}
	xs[0], xs[2] = math.Copysign(0, -1), 0
	return xs
}

// checkSumSorted holds SumSorted to slices.Sort plus an ascending loop: the
// same sum bit for bit, and xs left in the same order bit for bit (for the
// values the bucket pass takes that order is unique; everything else goes
// to slices.Sort itself).
func checkSumSorted(t *testing.T, xs []float64) {
	t.Helper()
	ref := slices.Clone(xs)
	slices.Sort(ref)
	var want float64
	for _, x := range ref {
		want += x
	}
	got := SumSorted(xs)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d: SumSorted = %v (%#x), slices.Sort then sum = %v (%#x)", len(xs), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("n=%d: xs[%d] = %v after SumSorted, slices.Sort puts %v there", len(xs), i, xs[i], ref[i])
		}
	}
}

func TestSumSortedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	withAt := func(xs []float64, i int, v float64) []float64 {
		xs[i] = v
		return xs
	}
	subnormals := make([]float64, 40)
	for i := range subnormals {
		subnormals[i] = math.Float64frombits(uint64(rng.Int63n(1 << 52)))
	}
	subnormals[3] = 0
	mixed := buildLikeRun(rng, 60)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = -mixed[i]
		}
	}
	all := make([]float64, 100)
	for i := range all {
		all[i] = 0.125
	}
	cases := []struct {
		name string
		xs   []float64
		// bucket: the bucket pass sorts the run itself, rather than
		// leaving it to slices.Sort.
		bucket bool
	}{
		{"n=0", nil, true},
		{"n=1", buildLikeRun(rng, 1), true},
		{"n=2", buildLikeRun(rng, 2), true},
		{"n=16", buildLikeRun(rng, 16), true},
		{"n=17", buildLikeRun(rng, 17), true},
		{"n=100", buildLikeRun(rng, 100), true},
		{"n=cap", buildLikeRun(rng, distCap), true},
		{"n=cap+1", buildLikeRun(rng, distCap+1), false},
		{"all equal", all, true},
		{"subnormals and +0", subnormals, true},
		// One value 1 000 binades below the rest crowds them into one bucket.
		{"subnormal among normals", withAt(buildLikeRun(rng, 50), 7, 5e-324), false},
		{"-0", withAt(buildLikeRun(rng, 40), 11, math.Copysign(0, -1)), false},
		{"-0 and +0 among spread values", signedZerosRun(), false},
		{"-0 short", withAt(buildLikeRun(rng, 5), 2, math.Copysign(0, -1)), false},
		{"NaN", withAt(buildLikeRun(rng, 40), 5, math.NaN()), false},
		{"NaN short", withAt(buildLikeRun(rng, 5), 0, math.NaN()), false},
		{"+Inf", withAt(buildLikeRun(rng, 40), 39, math.Inf(1)), false},
		{"-Inf", withAt(buildLikeRun(rng, 40), 0, math.Inf(-1)), false},
		{"largest finite", withAt(buildLikeRun(rng, 5), 3, math.MaxFloat64), true},
		{"mixed signs", mixed, false},
		{"crowded bucket", crowdedRun(rng), false},
		{"two crowded buckets", twoCrowdsRun(rng), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := sortNonNegative(slices.Clone(tc.xs)); got != tc.bucket {
				t.Errorf("sortNonNegative reports %v, want %v", got, tc.bucket)
			}
			checkSumSorted(t, tc.xs)
		})
	}
	for n := 0; n <= distCap+1; n++ {
		checkSumSorted(t, buildLikeRun(rng, n))
	}
}

// TestSortByBitsCarriesPayload: every key keeps its payload, whether the
// pass sorts the run (then ascending) or gives up (then a permutation), on
// runs short of, past and far past distCap, crowded ones and a refused one.
func TestSortByBitsCarriesPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	runs := [][]float64{
		buildLikeRun(rng, 9), buildLikeRun(rng, 100), buildLikeRun(rng, 1000),
		crowdedRun(rng), twoCrowdsRun(rng), {0.5, math.NaN(), 0.25},
	}
	for _, in := range runs {
		n := len(in)
		keys, payload := slices.Clone(in), make([]int, n)
		for i := range payload {
			payload[i] = i
		}
		sorted := SortByBits(keys, payload, make([]int32, 2*n), make([]float64, n), make([]int, n))
		for k, i := range payload {
			if math.Float64bits(keys[k]) != math.Float64bits(in[i]) {
				t.Fatalf("n=%d: key %v at %d carries payload %d, whose key was %v", n, keys[k], k, i, in[i])
			}
			if sorted && k > 0 && keys[k-1] > keys[k] {
				t.Fatalf("n=%d: reported sorted, but %v precedes %v", n, keys[k-1], keys[k])
			}
		}
		slices.Sort(payload)
		for i, p := range payload {
			if p != i {
				t.Fatalf("n=%d: payload is not a permutation of 0..n-1", n)
			}
		}
	}
}

// FuzzSumSorted reads the input as little-endian doubles. With abs set it
// clears each value's sign bit and the top exponent bit, so every value is
// finite and non-negative and the run reaches the bucket pass.
func FuzzSumSorted(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	enc := func(xs []float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	for _, xs := range [][]float64{
		nil,
		{1, 0.5},
		buildLikeRun(rng, 17),
		buildLikeRun(rng, 120),
		crowdedRun(rng),
		twoCrowdsRun(rng),
		{0.25, math.Copysign(0, -1), 0, 0.5},
		signedZerosRun(),
		{math.NaN(), 1, math.Inf(1), -2, math.Inf(-1)},
	} {
		f.Add(enc(xs), false)
		f.Add(enc(xs), true)
	}
	f.Fuzz(func(t *testing.T, b []byte, abs bool) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			u := binary.LittleEndian.Uint64(b[8*i:])
			if abs {
				u &= 0x7FEF_FFFF_FFFF_FFFF
			}
			xs[i] = math.Float64frombits(u)
		}
		checkSumSorted(t, xs)
	})
}
