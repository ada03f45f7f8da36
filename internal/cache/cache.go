// Package cache implements the serving layer's result cache: a sharded
// in-memory LRU with per-entry TTL, singleflight coalescing of concurrent
// misses, and O(1) whole-cache invalidation through a generation counter.
//
// The design targets the read-mostly query path: lookups take one shard
// mutex for a map read and an LRU list splice (no allocation on a hit),
// concurrent misses for the same key run the loader once and share the
// result, and an engine swap invalidates everything by bumping the
// generation instead of walking the shards — stale entries are simply
// ignored and evicted lazily as they are encountered.
//
// Only the standard library is used; the singleflight here differs from
// the well-known x/sync version in one deliberate way: when the leader's
// load fails, waiters do not share the error (which may be the leader's
// private cancellation) but fall back to loading for themselves.
package cache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
)

// numShards keeps unrelated keys off each other's mutex. A small power
// of two: the cache fronts a search engine, not a KV store, so shard
// contention — not shard count — is what matters.
const numShards = 8

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits and Misses count Do lookups by outcome; expired or
	// stale-generation entries count as misses.
	Hits   uint64
	Misses uint64
	// Coalesced counts Do callers that waited on another caller's load
	// instead of running their own.
	Coalesced uint64
	// Entries is the number of live cached values (including any not yet
	// lazily evicted after a generation bump).
	Entries int
}

// Cache is a sharded LRU+TTL cache with singleflight loading. The zero
// value is not usable; construct with New. A nil *Cache is valid and
// caches nothing — every Do runs its loader — so callers can disable
// caching without branching.
type Cache[V any] struct {
	shards [numShards]shard[V]
	seed   maphash.Seed
	ttl    time.Duration
	gen    atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64
	coal   atomic.Uint64
	// now is the clock; tests substitute a fake to drive TTL expiry.
	now func() time.Time
}

type shard[V any] struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *entry[V]
	items map[string]*list.Element
	calls map[string]*flight[V]
}

type entry[V any] struct {
	key string
	val V
	gen uint64
	exp time.Time // zero when the cache has no TTL
}

// flight is one in-progress load shared by all concurrent Do callers of
// a key.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache holding up to entries values (split across shards,
// at least one per shard) with the given per-entry TTL (0 = no expiry).
// Returns nil — the caching-disabled cache — when entries <= 0.
func New[V any](entries int, ttl time.Duration) *Cache[V] {
	if entries <= 0 {
		return nil
	}
	per := (entries + numShards - 1) / numShards
	c := &Cache[V]{seed: maphash.MakeSeed(), ttl: ttl, now: time.Now}
	for i := range c.shards {
		c.shards[i] = shard[V]{
			cap:   per,
			lru:   list.New(),
			items: make(map[string]*list.Element, per),
			calls: make(map[string]*flight[V]),
		}
	}
	return c
}

func (c *Cache[V]) shardOf(key string) *shard[V] {
	return &c.shards[maphash.String(c.seed, key)%numShards]
}

// liveLocked returns the entry's value if it is current (right
// generation, not expired), removing it otherwise. Callers hold s.mu.
func (c *Cache[V]) liveLocked(s *shard[V], el *list.Element) (V, bool) {
	e := el.Value.(*entry[V])
	if e.gen == c.gen.Load() && (e.exp.IsZero() || c.now().Before(e.exp)) {
		s.lru.MoveToFront(el)
		return e.val, true
	}
	s.lru.Remove(el)
	delete(s.items, e.key)
	var zero V
	return zero, false
}

// putLocked inserts or refreshes a value stamped with gen. Callers hold
// s.mu.
func (c *Cache[V]) putLocked(s *shard[V], key string, v V, gen uint64) {
	var exp time.Time
	if c.ttl > 0 {
		exp = c.now().Add(c.ttl)
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry[V])
		e.val, e.gen, e.exp = v, gen, exp
		s.lru.MoveToFront(el)
		return
	}
	for s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.items, oldest.Value.(*entry[V]).key)
	}
	s.items[key] = s.lru.PushFront(&entry[V]{key: key, val: v, gen: gen, exp: exp})
}

// Do returns the cached value for key or loads it with fn, caching a
// successful result. Concurrent calls for the same key run fn once and
// share the value (singleflight); if the shared load fails, each waiter
// falls back to loading for itself so one caller's failure — or private
// context cancellation — never poisons the others. Loads that straddle a
// Bump are returned to their callers but not cached.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (V, error) {
	if c == nil {
		return fn()
	}
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		if v, ok := c.liveLocked(s, el); ok {
			c.hits.Add(1)
			s.mu.Unlock()
			return v, nil
		}
	}
	c.misses.Add(1)
	if f, ok := s.calls[key]; ok {
		s.mu.Unlock()
		c.coal.Add(1)
		<-f.done
		if f.err == nil {
			return f.val, nil
		}
		return fn()
	}
	f := &flight[V]{done: make(chan struct{})}
	s.calls[key] = f
	gen := c.gen.Load()
	s.mu.Unlock()

	f.val, f.err = fn()
	close(f.done)

	s.mu.Lock()
	delete(s.calls, key)
	if f.err == nil && gen == c.gen.Load() {
		c.putLocked(s, key, f.val, gen)
	}
	s.mu.Unlock()
	return f.val, f.err
}

// Bump invalidates every cached entry in O(1) by advancing the
// generation; superseded entries are evicted lazily on access. In-flight
// loads finish and are handed to their callers but not cached.
func (c *Cache[V]) Bump() {
	if c == nil {
		return
	}
	c.gen.Add(1)
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coal.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}
