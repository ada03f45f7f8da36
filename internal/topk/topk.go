// Package topk provides a bounded selection heap: a fixed-capacity
// container that retains the K best items of a stream under a total order,
// in O(log K) per offered item and O(K) space. The search merge keeps the
// offset+limit best results in it and the shard page merge the best rows
// (the index's MaxScore evaluator runs a copy specialised to its hit type),
// and its Min is the running threshold those layers prune against.
//
// The zero structural invariant callers rely on: after any sequence of
// Offer calls, the retained set is exactly the K best of everything
// offered, where "best" is the total order induced by the worse
// comparator. Ties must be broken by the comparator itself (e.g. by
// document ID), so the retained set is deterministic and independent of
// offer order.
package topk

// Heap retains the K best items offered to it. Construct with New.
//
// Internally it is a binary min-heap ordered by worse: the root is the
// worst retained item, so a full heap replaces its root whenever a better
// item arrives and rejects the rest in O(1).
type Heap[T any] struct {
	// worse reports whether a ranks strictly below b in the final order.
	worse func(a, b T) bool
	items []T
	k     int
}

// New returns a heap retaining the k best items under the given
// comparator. worse(a, b) must implement a strict total order ("a ranks
// strictly below b"); k must be positive.
func New[T any](k int, worse func(a, b T) bool) *Heap[T] {
	if k <= 0 {
		panic("topk: non-positive capacity")
	}
	return &Heap[T]{worse: worse, items: make([]T, 0, k), k: k}
}

// Full reports whether the heap holds k items — only then is Min a
// meaningful pruning threshold.
func (h *Heap[T]) Full() bool { return len(h.items) == h.k }

// Min returns the worst retained item. It is only valid when the heap
// holds at least one item.
func (h *Heap[T]) Min() T { return h.items[0] }

// Offer inserts x if it belongs in the K best seen so far, evicting the
// current worst when full. Returns whether x was retained.
func (h *Heap[T]) Offer(x T) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, x)
		h.up(len(h.items) - 1)
		return true
	}
	// Full: x must strictly beat the current worst to displace it.
	if !h.worse(h.items[0], x) {
		return false
	}
	h.items[0] = x
	h.down(0)
	return true
}

// Items returns the retained items in unspecified (heap) order. The slice
// aliases the heap's storage; callers typically sort it once at the end.
func (h *Heap[T]) Items() []T { return h.items }

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h.worse(h.items[l], h.items[worst]) {
			worst = l
		}
		if r < n && h.worse(h.items[r], h.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
