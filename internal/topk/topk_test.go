package topk

import (
	"math/rand"
	"sort"
	"testing"
)

type item struct {
	score float64
	id    int
}

// worseItem orders by ascending score, ties by descending id — so the
// "best K" are the highest scores with the smallest ids on ties, matching
// the search layers' (score desc, id asc) result order.
func worseItem(a, b item) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

// bestK computes the expected retained set by full sort.
func bestK(items []item, k int) []item {
	sorted := append([]item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return worseItem(sorted[j], sorted[i]) })
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func sortDesc(items []item) {
	sort.Slice(items, func(i, j int) bool { return worseItem(items[j], items[i]) })
}

func TestHeapAgainstFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		k := 1 + rng.Intn(12)
		items := make([]item, n)
		for i := range items {
			// Coarse scores force plenty of ties to exercise the id tiebreak.
			items[i] = item{score: float64(rng.Intn(8)) / 4, id: i}
		}
		h := New(k, worseItem)
		for _, it := range items {
			h.Offer(it)
		}
		got := append([]item(nil), h.Items()...)
		sortDesc(got)
		want := bestK(items, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): retained %d items, want %d", trial, n, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): item %d = %+v, want %+v", trial, n, k, i, got[i], want[i])
			}
		}
	}
}

func TestHeapOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := make([]item, 40)
	for i := range items {
		items[i] = item{score: float64(rng.Intn(5)), id: i}
	}
	want := bestK(items, 6)
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]item(nil), items...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		h := New(6, worseItem)
		for _, it := range shuffled {
			h.Offer(it)
		}
		got := append([]item(nil), h.Items()...)
		sortDesc(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("offer order changed the retained set: item %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

func TestHeapMinIsThreshold(t *testing.T) {
	h := New(3, worseItem)
	for i, s := range []float64{0.5, 0.9, 0.1, 0.7, 0.3} {
		h.Offer(item{score: s, id: i})
	}
	if !h.Full() {
		t.Fatal("heap should be full")
	}
	if min := h.Min(); min.score != 0.5 {
		t.Fatalf("Min score = %v, want 0.5 (third best of {0.9,0.7,0.5})", min.score)
	}
	// An item not beating Min must be rejected without changing the set.
	if h.Offer(item{score: 0.5, id: 99}) {
		t.Fatal("tie with Min (larger id) must be rejected")
	}
	if h.Offer(item{score: 0.4, id: -1}) {
		t.Fatal("item below Min must be rejected")
	}
	// A tie with Min but better id displaces it.
	if !h.Offer(item{score: 0.5, id: -1}) {
		t.Fatal("tie with Min (smaller id) must displace it")
	}
}

func TestHeapPartialFill(t *testing.T) {
	h := New(10, worseItem)
	h.Offer(item{score: 1, id: 0})
	h.Offer(item{score: 2, id: 1})
	if h.Full() {
		t.Fatal("heap with 2/10 items reports Full")
	}
	if n := len(h.Items()); n != 2 {
		t.Fatalf("%d items retained, want 2", n)
	}
}

func TestHeapBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0, func(a, b int) bool { return a < b })
}
