package vector

import (
	"math"
	"reflect"
	"sort"
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

// dfOf is the document-frequency table of docs: each document's distinct
// terms counted once.
func dfOf(tb testing.TB, docs ...Sparse) *DF {
	tb.Helper()
	counts := map[string]int32{}
	for _, d := range docs {
		for t := range d {
			counts[t]++
		}
	}
	terms := make([]string, 0, len(counts))
	for t := range counts {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	df := make([]int32, len(terms))
	for i, t := range terms {
		df[i] = counts[t]
	}
	d, err := NewDF(len(docs), terms, df)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func TestDFWeighting(t *testing.T) {
	df := dfOf(t, Sparse{"common": 1, "rare": 1}, Sparse{"common": 1}, Sparse{"common": 1})
	docs, counts := df.Counts()
	if docs != 3 {
		t.Fatalf("docs = %d", docs)
	}
	common, _ := df.ID("common")
	rare, _ := df.ID("rare")
	if common != 0 || rare != 1 || counts[common] != 3 || counts[rare] != 1 {
		t.Fatalf("df: common=%d (ID %d) rare=%d (ID %d)", counts[common], common, counts[rare], rare)
	}
	if _, ok := df.ID("unseen"); ok {
		t.Error("an unseen term has no ID")
	}
	if !(df.IDF("rare") > df.IDF("common")) {
		t.Error("rare terms must have higher IDF")
	}
	if !(df.IDF("unseen") >= df.IDF("rare")) {
		t.Error("unseen terms must have maximal IDF")
	}
	if df.IDFs()[rare] != df.IDF("rare") {
		t.Error("IDFs disagrees with IDF")
	}
	w := df.Weight(Sparse{"common": 4, "rare": 1, "zero": 0})
	if _, ok := w["zero"]; ok {
		t.Error("zero tf must be dropped")
	}
	// log damping: tf=4 gives 1+ln4 ≈ 2.386 times idf
	if !almostEq(w["common"], (1+math.Log(4))*df.IDF("common")) {
		t.Errorf("weight(common) = %v", w["common"])
	}
	for _, bad := range [][]string{{"b", "a"}, {"a", "a"}, {"a"}} {
		if _, err := NewDF(3, bad, []int32{1, 1}); err == nil {
			t.Errorf("NewDF accepted terms %q with two counts", bad)
		}
	}
	for _, bad := range [][]int32{{0, 1}, {1, 4}, {-1, 1}} {
		if _, err := NewDF(3, []string{"a", "b"}, bad); err == nil {
			t.Errorf("NewDF accepted document frequencies %v over 3 documents", bad)
		}
	}
}

func TestWeightDoesNotMutateInput(t *testing.T) {
	tf := Sparse{"a": 2}
	df := dfOf(t, tf)
	_ = df.Weight(tf)
	if tf["a"] != 2 {
		t.Fatal("Weight mutated its input")
	}
}
