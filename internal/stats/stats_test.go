package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty input must return 0")
	}
	xs := []float64{3, 1, 2}
	if !almostEq(Mean(xs), 2) || !almostEq(Median(xs), 2) {
		t.Errorf("mean=%v median=%v", Mean(xs), Median(xs))
	}
	if !almostEq(Median([]float64{4, 1, 3, 2}), 2.5) {
		t.Errorf("even median = %v", Median([]float64{4, 1, 3, 2}))
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	Median(in)
	if !reflect.DeepEqual(in, []float64{9, 1, 5}) {
		t.Error("Median mutated its input")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.05, 0.15, 0.95, 1.0, -1, 2}, 10, 0, 1)
	want := []int{3, 1, 0, 0, 0, 0, 0, 0, 0, 3} // -1 clamps to bin 0; 1.0 and 2 to bin 9
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("hist = %v, want %v", h, want)
	}
	if Histogram(nil, 0, 0, 1) != nil || Histogram(nil, 5, 1, 1) != nil {
		t.Error("degenerate parameters must return nil")
	}
}

func TestPercentages(t *testing.T) {
	p := Percentages([]int{1, 3})
	if !almostEq(p[0], 25) || !almostEq(p[1], 75) {
		t.Fatalf("p = %v", p)
	}
	p = Percentages([]int{0, 0})
	if p[0] != 0 || p[1] != 0 {
		t.Fatalf("zero-sum p = %v", p)
	}
}

func TestPearsonSpearman(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if !almostEq(Pearson(xs, ys), 1) {
		t.Errorf("perfect Pearson = %v", Pearson(xs, ys))
	}
	rev := []float64{8, 6, 4, 2}
	if !almostEq(Pearson(xs, rev), -1) {
		t.Errorf("inverse Pearson = %v", Pearson(xs, rev))
	}
	if Pearson(xs, []float64{5, 5, 5, 5}) != 0 {
		t.Error("zero-variance Pearson must be 0")
	}
	if Pearson(xs, ys[:2]) != 0 {
		t.Error("length mismatch must return 0")
	}
	// Spearman is invariant under monotone transforms.
	cube := []float64{1, 8, 27, 64}
	if !almostEq(Spearman(xs, cube), 1) {
		t.Errorf("Spearman monotone = %v", Spearman(xs, cube))
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("ranks = %v, want %v", r, want)
	}
}

func TestSeparabilitySD(t *testing.T) {
	// Perfectly uniform over 10 bins: SD = 0.
	var uniform []float64
	for i := 0; i < 10; i++ {
		uniform = append(uniform, float64(i)/10+0.05)
	}
	if got := SeparabilitySD(uniform, 10); !almostEq(got, 0) {
		t.Errorf("uniform SD = %v", got)
	}
	// All mass in one bin: Xi = {100,0,...}; SD = sqrt((90²+9·10²)/10) = 30.
	allSame := []float64{0.5, 0.5, 0.5, 0.5}
	if got := SeparabilitySD(allSame, 10); !almostEq(got, 30) {
		t.Errorf("degenerate SD = %v, want 30", got)
	}
	if SeparabilitySD(nil, 10) != 0 || SeparabilitySD(uniform, 0) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}

// Property: separability SD is bounded by sqrt((100-u)²+ (n-1)u²)/sqrt(n)
// (all mass in one bin) and non-negative.
func TestSeparabilityBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 255
		}
		sd := SeparabilitySD(xs, 10)
		return sd >= 0 && sd <= 30+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Spearman of any sequence with itself is 1 (when variance > 0).
func TestSpearmanSelfProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		vary := false
		for i, r := range raw {
			xs[i] = float64(r)
			if xs[i] != xs[0] {
				vary = true
			}
		}
		if !vary {
			return true
		}
		return almostEq(Spearman(xs, xs), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
