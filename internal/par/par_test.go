package par

import (
	"sync/atomic"
	"testing"
)

func TestShardsCoverExactly(t *testing.T) {
	for _, tc := range []struct{ n, w int }{
		{0, 4}, {1, 4}, {3, 4}, {4, 4}, {7, 3}, {100, 8}, {5, 0}, {5, 1},
	} {
		shards := Shards(tc.n, tc.w)
		covered := 0
		prev := 0
		for _, s := range shards {
			if s.Lo != prev {
				t.Fatalf("n=%d w=%d: shard gap at %d (got Lo=%d)", tc.n, tc.w, prev, s.Lo)
			}
			if s.Hi <= s.Lo {
				t.Fatalf("n=%d w=%d: empty shard %+v", tc.n, tc.w, s)
			}
			covered += s.Hi - s.Lo
			prev = s.Hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d w=%d: shards cover %d items", tc.n, tc.w, covered)
		}
		if tc.n > 0 && len(shards) > Workers(tc.n, tc.w) {
			t.Fatalf("n=%d w=%d: %d shards exceed worker bound", tc.n, tc.w, len(shards))
		}
	}
}

func TestShardsDependOnlyOnInputs(t *testing.T) {
	a, b := Shards(1000, 7), Shards(1000, 7)
	if len(a) != len(b) {
		t.Fatal("shard counts differ between identical calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{0, 1, 3, 16} {
		n := 257
		counts := make([]int32, n)
		For(n, w, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
			}
		}
	}
}

func TestForShardsVisitsEveryShard(t *testing.T) {
	shards := Shards(100, 6)
	var total int64
	ForShards(shards, func(si int, s Shard) {
		atomic.AddInt64(&total, int64(s.Hi-s.Lo))
	})
	if total != 100 {
		t.Fatalf("shards processed %d of 100 items", total)
	}
}

func TestWorkersNormalisation(t *testing.T) {
	if w := Workers(10, 0); w < 1 {
		t.Fatalf("Workers(10,0) = %d", w)
	}
	if w := Workers(3, 8); w != 3 {
		t.Fatalf("Workers(3,8) = %d, want 3", w)
	}
	if w := Workers(0, 8); w != 1 {
		t.Fatalf("Workers(0,8) = %d, want 1", w)
	}
}
