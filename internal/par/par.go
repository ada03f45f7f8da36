// Package par provides the bounded fan-out primitives the offline build
// pipeline shares: a parallel for-loop and contiguous shard splitting.
//
// The two loops differ in what a caller may attribute to a goroutine.
// ForShards partitions statically: call si covers shards[si], a range that
// Shards derives from (n, workers) alone, so per-shard accumulators merged
// in shard order produce output independent of scheduling. For hands items out
// through a channel, so which goroutine computes which item is not fixed;
// fn(i) must write only what belongs to item i. Callers whose merge is
// order-insensitive (integer counts, disjoint map keys, disjoint slice
// slots) produce output independent of the worker count with either.
package par

import (
	"runtime"
	"sync"
)

// Workers normalises a worker-count knob against the amount of work:
// w <= 0 selects GOMAXPROCS, and the result never exceeds n (no idle
// goroutines for tiny inputs).
func Workers(n, w int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(i) for every i in [0,n) across a bounded worker pool and
// waits for completion. workers <= 0 selects GOMAXPROCS; with one worker
// (or n < 2) it runs inline on the calling goroutine. fn must be safe for
// concurrent invocation with distinct i.
//
// Items are handed out through a channel, so For balances uneven per-item
// cost; use ForShards when per-shard state must be attributable to a static
// partition.
func For(n, workers int, fn func(i int)) {
	workers = Workers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// Shard is a contiguous half-open index range [Lo, Hi).
type Shard struct {
	Lo, Hi int
}

// Shards splits [0,n) into Workers(n, workers) contiguous near-equal
// ranges. The split depends only on (n, workers), never on scheduling, so
// per-shard accumulators merged in shard order yield deterministic results.
// n == 0 returns no shards.
func Shards(n, workers int) []Shard {
	if n == 0 {
		return nil
	}
	workers = Workers(n, workers)
	out := make([]Shard, 0, workers)
	size, rem := n/workers, n%workers
	lo := 0
	for i := 0; i < workers; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out = append(out, Shard{lo, hi})
		lo = hi
	}
	return out
}

// ForShards runs fn(si, shard) for every shard concurrently (one goroutine
// per shard) and waits for completion. A single shard runs inline. fn must
// be safe for concurrent invocation with distinct si.
func ForShards(shards []Shard, fn func(si int, s Shard)) {
	if len(shards) == 0 {
		return
	}
	if len(shards) == 1 {
		fn(0, shards[0])
		return
	}
	var wg sync.WaitGroup
	for si := range shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			fn(si, shards[si])
		}(si)
	}
	wg.Wait()
}
