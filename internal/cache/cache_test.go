package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errMiss is the loader error get uses to read without filling.
var errMiss = errors.New("miss")

// get reads key through Do with a failing loader, so a miss caches
// nothing: the cached value and true on a hit, false on a miss.
func get[V any](c *Cache[V], key string) (V, bool) {
	v, err := c.Do(key, func() (V, error) {
		var zero V
		return zero, errMiss
	})
	return v, err == nil
}

// put loads v under key through Do: it fills the cache on a miss and
// leaves a current entry as it is.
func put[V any](c *Cache[V], key string, v V) {
	_, _ = c.Do(key, func() (V, error) { return v, nil })
}

func TestGetPutHitMiss(t *testing.T) {
	c := New[int](64, 0)
	if _, ok := get(c, "a"); ok {
		t.Fatal("empty cache must miss")
	}
	put(c, "a", 1)
	if v, ok := get(c, "a"); !ok || v != 1 {
		t.Fatalf("get(a) = %d,%v, want 1,true", v, ok)
	}
	put(c, "a", 2)
	if v, _ := get(c, "a"); v != 1 {
		t.Fatalf("a current entry must be served, not reloaded: got %d, want 1", v)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 2 misses, 1 entry", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// One entry per shard: inserting two keys in one shard must evict
	// the older.
	c := New[int](numShards, 0)
	// Find three keys landing in the same shard.
	var keys []string
	want := c.shardOf("k0")
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardOf(k) == want {
			keys = append(keys, k)
		}
	}
	put(c, keys[0], 0)
	put(c, keys[1], 1) // evicts keys[0]
	if _, ok := get(c, keys[0]); ok {
		t.Fatal("oldest entry survived a full shard")
	}
	if v, ok := get(c, keys[1]); !ok || v != 1 {
		t.Fatal("newest entry evicted")
	}
	put(c, keys[2], 2) // evicts keys[1]
	if _, ok := get(c, keys[1]); ok {
		t.Fatal("LRU order not maintained")
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string](8, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	put(c, "k", "v")
	if _, ok := get(c, "k"); !ok {
		t.Fatal("fresh entry must hit")
	}
	now = now.Add(59 * time.Second)
	if _, ok := get(c, "k"); !ok {
		t.Fatal("entry expired early")
	}
	now = now.Add(2 * time.Second)
	if _, ok := get(c, "k"); ok {
		t.Fatal("entry survived its TTL")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("expired entry not evicted: %+v", st)
	}
	// A Do after expiry reloads and re-caches with a fresh deadline.
	if v, err := c.Do("k", func() (string, error) { return "v2", nil }); err != nil || v != "v2" {
		t.Fatalf("Do after expiry = %q,%v", v, err)
	}
	if v, ok := get(c, "k"); !ok || v != "v2" {
		t.Fatal("reload not cached")
	}
}

func TestDoCachesSuccessNotError(t *testing.T) {
	c := New[int](8, 0)
	calls := 0
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do must surface the loader error, got %v", err)
	}
	if _, ok := get(c, "k"); ok {
		t.Fatal("failed load must not be cached")
	}
	if v, err := c.Do("k", func() (int, error) { calls++; return 7, nil }); err != nil || v != 7 {
		t.Fatalf("Do = %d,%v", v, err)
	}
	if v, err := c.Do("k", func() (int, error) { calls++; return -1, nil }); err != nil || v != 7 {
		t.Fatalf("cached Do = %d,%v, want 7,nil", v, err)
	}
	if calls != 2 {
		t.Fatalf("loader ran %d times, want 2", calls)
	}
}

// TestDoSingleflight hammers one cold key from many goroutines: exactly
// one loader must run, everyone must get its value, and the coalesced
// counter must account for every waiter (run under -race by make race).
func TestDoSingleflight(t *testing.T) {
	c := New[int](8, 0)
	var loads atomic.Int32
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("k", func() (int, error) {
				loads.Add(1)
				<-gate // hold the flight open until all callers joined
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d,%v, want 42,nil", v, err)
			}
		}()
	}
	// Let the leader start, give waiters time to pile onto the flight,
	// then release. Timing here only affects how many coalesce, never
	// correctness.
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Coalesced == 0 || st.Coalesced > workers-1 {
		t.Fatalf("coalesced = %d, want in [1, %d]", st.Coalesced, workers-1)
	}
}

// TestDoLeaderErrorFallback pins the divergence from x/sync singleflight:
// waiters on a failed flight run their own load instead of inheriting the
// leader's error.
func TestDoLeaderErrorFallback(t *testing.T) {
	c := New[int](8, 0)
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = c.Do("k", func() (int, error) {
			close(leaderIn)
			<-gate
			return 0, errors.New("leader failed")
		})
	}()
	<-leaderIn
	wg.Add(1)
	var waiterV int
	var waiterErr error
	go func() {
		defer wg.Done()
		waiterV, waiterErr = c.Do("k", func() (int, error) { return 99, nil })
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if leaderErr == nil {
		t.Fatal("leader must see its own error")
	}
	if waiterErr != nil || waiterV != 99 {
		t.Fatalf("waiter = %d,%v, want its own 99,nil", waiterV, waiterErr)
	}
}

func TestBumpInvalidates(t *testing.T) {
	c := New[int](8, 0)
	put(c, "k", 1)
	c.Bump()
	if _, ok := get(c, "k"); ok {
		t.Fatal("entry survived Bump")
	}
	// A load that straddles a Bump is returned but not cached.
	v, err := c.Do("x", func() (int, error) {
		c.Bump()
		return 5, nil
	})
	if err != nil || v != 5 {
		t.Fatalf("straddling Do = %d,%v", v, err)
	}
	if _, ok := get(c, "x"); ok {
		t.Fatal("stale-generation load was cached")
	}
	// The cache keeps working at the new generation.
	put(c, "y", 9)
	if v, ok := get(c, "y"); !ok || v != 9 {
		t.Fatal("cache dead after Bump")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache[int]
	if c := New[int](0, 0); c != nil {
		t.Fatal("entries <= 0 must build the disabled cache")
	}
	if _, ok := get(c, "k"); ok {
		t.Fatal("nil cache must miss")
	}
	c.Bump()
	calls := 0
	for i := 0; i < 2; i++ {
		if v, err := c.Do("k", func() (int, error) { calls++; return 3, nil }); err != nil || v != 3 {
			t.Fatalf("nil Do = %d,%v", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache must run every loader: %d calls", calls)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

// BenchmarkCacheHit measures the steady-state hit path; the near-zero
// allocation count here is what keeps cached queries allocation-free at
// the server layer.
func BenchmarkCacheHit(b *testing.B) {
	c := New[[]byte](1024, time.Minute)
	put(c, "q", []byte("result"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := get(c, "q"); !ok {
			b.Fatal("miss")
		}
	}
}
