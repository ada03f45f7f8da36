package vector

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFromTerms(t *testing.T) {
	v := FromTerms([]string{"gene", "gene", "ontology"})
	if v["gene"] != 2 || v["ontology"] != 1 {
		t.Fatalf("v = %v", v)
	}
}

func TestDotAndNorm(t *testing.T) {
	v := Sparse{"a": 1, "b": 2}
	u := Sparse{"b": 3, "c": 4}
	if got := v.Dot(u); got != 6 {
		t.Errorf("Dot = %v", got)
	}
	if got := u.Dot(v); got != 6 {
		t.Errorf("Dot not symmetric: %v", got)
	}
	if got := v.Norm(); !almostEq(got, math.Sqrt(5)) {
		t.Errorf("Norm = %v", got)
	}
}

func TestCosine(t *testing.T) {
	v := Sparse{"a": 1, "b": 1}
	if got := Cosine(v, v); !almostEq(got, 1) {
		t.Errorf("self cosine = %v", got)
	}
	if got := Cosine(v, Sparse{"c": 5}); got != 0 {
		t.Errorf("disjoint cosine = %v", got)
	}
	if got := Cosine(v, nil); got != 0 {
		t.Errorf("nil cosine = %v", got)
	}
	if got := Cosine(Sparse{"a": 1}, Sparse{"a": 1, "b": 1}); !almostEq(got, 1/math.Sqrt2) {
		t.Errorf("45° cosine = %v", got)
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid([]Sparse{{"a": 2}, {"a": 4, "b": 2}})
	if !almostEq(c["a"], 3) || !almostEq(c["b"], 1) {
		t.Fatalf("centroid = %v", c)
	}
	if Centroid(nil) != nil {
		t.Error("empty centroid should be nil")
	}
}

func TestAddScaleClone(t *testing.T) {
	v := Sparse{"a": 1}
	w := v.Clone()
	w.Add(Sparse{"a": 1, "b": 2}).Scale(2)
	if v["a"] != 1 {
		t.Error("Clone is not independent")
	}
	if w["a"] != 4 || w["b"] != 4 {
		t.Errorf("w = %v", w)
	}
}

func TestTopTerms(t *testing.T) {
	v := Sparse{"low": 1, "hi": 9, "mid": 5, "tie1": 3, "tie2": 3}
	got := v.TopTerms(4)
	want := []string{"hi", "mid", "tie1", "tie2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopTerms = %v, want %v", got, want)
	}
	if got := v.TopTerms(99); len(got) != 5 {
		t.Errorf("oversized k returned %d terms", len(got))
	}
}

// Properties: cosine is symmetric and within [0,1] for non-negative vectors.
func TestCosineProperties(t *testing.T) {
	mk := func(ks []uint8) Sparse {
		v := New()
		for i, k := range ks {
			v[string(rune('a'+k%8))] += float64(i%5) + 1
		}
		return v
	}
	f := func(a, b []uint8) bool {
		v, u := mk(a), mk(b)
		c1, c2 := Cosine(v, u), Cosine(u, v)
		return almostEq(c1, c2) && c1 >= 0 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDFWeighting(t *testing.T) {
	df := NewDF()
	df.AddDoc(Sparse{"common": 1, "rare": 1})
	df.AddDoc(Sparse{"common": 1})
	df.AddDoc(Sparse{"common": 1})
	if docs, _ := df.Counts(); docs != 3 {
		t.Fatalf("docs = %d", docs)
	}
	if df.df["common"] != 3 || df.df["rare"] != 1 {
		t.Fatalf("df: common=%d rare=%d", df.df["common"], df.df["rare"])
	}
	if !(df.IDF("rare") > df.IDF("common")) {
		t.Error("rare terms must have higher IDF")
	}
	if !(df.IDF("unseen") >= df.IDF("rare")) {
		t.Error("unseen terms must have maximal IDF")
	}
	w := df.Weight(Sparse{"common": 4, "rare": 1, "zero": 0})
	if _, ok := w["zero"]; ok {
		t.Error("zero tf must be dropped")
	}
	// log damping: tf=4 gives 1+ln4 ≈ 2.386 times idf
	if !almostEq(w["common"], (1+math.Log(4))*df.IDF("common")) {
		t.Errorf("weight(common) = %v", w["common"])
	}
}

func TestWeightDoesNotMutateInput(t *testing.T) {
	df := NewDF()
	tf := Sparse{"a": 2}
	df.AddDoc(tf)
	_ = df.Weight(tf)
	if tf["a"] != 2 {
		t.Fatal("Weight mutated its input")
	}
}
