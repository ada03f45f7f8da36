package vector

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func randomVec(rng *rand.Rand, n int) Sparse {
	v := New()
	for i := 0; i < n; i++ {
		v[fmt.Sprintf("t%04d", rng.Intn(2000))] = rng.Float64()
	}
	return v
}

func BenchmarkCosine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := randomVec(rng, 400)
	v := randomVec(rng, 400)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Cosine(u, v)
	}
}

func BenchmarkCentroid(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vs := make([]Sparse, 40)
	for i := range vs {
		vs[i] = randomVec(rng, 300)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Centroid(vs)
	}
}

var sumSink float64

// BenchmarkSumSorted times SumSorted against the slices.Sort it replaced, on
// build-like runs at the lengths an offline build sums (most are under 32
// or between 64 and 96 at 800 papers / 160 terms) and on the bucket pass's
// worst case, which must stay within 2× of slices.Sort. Each iteration
// copies a fresh unsorted run in, on both arms.
func BenchmarkSumSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	draw := func(run func() []float64) [][]float64 {
		runs := make([][]float64, 64)
		for i := range runs {
			runs[i] = run()
		}
		return runs
	}
	type arm struct {
		name string
		runs [][]float64
	}
	var arms []arm
	for _, n := range []int{8, 32, 100, 200} {
		arms = append(arms, arm{fmt.Sprintf("n=%d", n), draw(func() []float64 { return buildLikeRun(rng, n) })})
	}
	arms = append(arms, arm{"crowded", draw(func() []float64 { return crowdedRun(rng) })})
	sorts := []struct {
		name string
		sum  func([]float64) float64
	}{
		{"kernel", SumSorted},
		{"slices.Sort", func(xs []float64) float64 {
			slices.Sort(xs)
			var s float64
			for _, x := range xs {
				s += x
			}
			return s
		}},
	}
	for _, a := range arms {
		for _, s := range sorts {
			b.Run(a.name+"/"+s.name, func(b *testing.B) {
				xs := make([]float64, len(a.runs[0]))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(xs, a.runs[i%len(a.runs)])
					sumSink = s.sum(xs)
				}
			})
		}
	}
}

func BenchmarkTFIDFWeight(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	docs := make([]Sparse, 500)
	for i := range docs {
		docs[i] = randomVec(rng, 200)
	}
	df := dfOf(b, docs...)
	doc := randomVec(rng, 400)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = df.Weight(doc)
	}
}
