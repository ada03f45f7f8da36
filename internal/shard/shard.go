// Package shard implements horizontally sharded serving: the corpus is
// partitioned into contiguous paper-ID ranges (internal/par's deterministic
// shard split), each shard gets its own CSR inverted index and prestige
// matrix restricted to its range, and a coordinator fans every query out to
// all shards and merges the per-shard pages exactly.
//
// The merge is rank-safe without approximation because the per-context
// scoring model makes shards fully independent: a paper's text-matching
// score depends only on the corpus-global analyzer (which every shard
// shares — the range restricts which papers have postings, never how they
// are weighted) and its prestige depends only on its own (context, paper)
// cell. A shard's ranked page is therefore exactly the single-engine result
// list filtered to its papers, the global top offset+limit results are
// contained in the union of the per-shard top offset+limit pages, and the
// bounded heap merge under the engine's own total order reconstructs the
// single-engine page byte for byte (the golden batteries pin this).
//
// This package is the in-process deployment shape: one binary, N shard
// engines, per-query fan-out over a bounded goroutine pool. The HTTP/JSON
// shape (multi-process shards behind POST /shard/search) lives in
// internal/server's Coordinator, which merges with MergePages.
package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/par"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/search"
)

// Group is a set of shard engines behind a scatter-gather coordinator. It
// implements the same query surface as a single *search.Engine (the
// server's Searcher interface), returning byte-identical results.
type Group struct {
	engines []*search.Engine
	ranges  []par.Shard
	fanout  int
	metrics *Metrics
}

// Options tune group construction and fan-out.
type Options struct {
	// FanOut caps how many shards are queried concurrently per search
	// (0 = all shards at once).
	FanOut int
}

// NewGroupParts partitions the corpus into n contiguous paper-ID ranges and
// binds one engine per range (see RangeEngineParts). The context set and
// relevancy weights are shared — context selection is identical on every
// shard because the sliced matrices keep the full context list — and the
// sliced parts keep the global term dictionary, so per-shard engines weight
// queries exactly as the single engine does and the merged pages stay
// byte-identical. n is clamped to [1, corpus size].
func NewGroupParts(a *corpus.Analyzer, parts *index.Parts, cs *contextset.ContextSet, m *prestige.Matrix, w search.Weights, n int, opts Options) (*Group, error) {
	ranges := par.Shards(a.Corpus().Len(), n)
	g := &Group{
		engines: make([]*search.Engine, len(ranges)),
		ranges:  ranges,
		fanout:  opts.FanOut,
		metrics: NewMetrics(len(ranges)),
	}
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, _, err := RangeEngineParts(a, parts, cs, m, w, i, n)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			g.engines[i] = eng
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// RangeEngineParts binds shard i of n's engine alone — the multi-process
// deployment shape, where each process owns one paper range and serves it
// over POST /shard/search. The range's index is a Parts.SliceRange of the
// existing postings (a binary-search restriction, no corpus analysis) over
// the shared corpus-global analyzer, and the prestige matrix is sliced to
// the range, so a shard is query-ready in O(terms + its own postings). The
// split is par.Shards', so a multi-process cluster and an in-process group
// with the same n partition identically; n is clamped to the corpus size,
// and an index beyond the resulting ranges is an error.
func RangeEngineParts(a *corpus.Analyzer, parts *index.Parts, cs *contextset.ContextSet, m *prestige.Matrix, w search.Weights, i, n int) (*search.Engine, par.Shard, error) {
	ranges := par.Shards(a.Corpus().Len(), n)
	if i < 0 || i >= len(ranges) {
		return nil, par.Shard{}, fmt.Errorf("shard index %d out of range (corpus of %d papers splits into %d shards)", i, a.Corpus().Len(), len(ranges))
	}
	r := ranges[i]
	ix, err := index.FromParts(a, parts.SliceRange(r.Lo, r.Hi))
	if err != nil {
		return nil, par.Shard{}, err
	}
	return search.NewEngineFrozen(ix, cs, m.Slice(r.Lo, r.Hi), w), r, nil
}

// NumShards returns the number of shards in the group.
func (g *Group) NumShards() int { return len(g.engines) }

// Ranges returns the per-shard paper-ID ranges.
func (g *Group) Ranges() []par.Shard { return g.ranges }

// Engine returns the i-th shard's engine (tests and diagnostics).
func (g *Group) Engine(i int) *search.Engine { return g.engines[i] }

// Metrics returns the group's coordinator counters.
func (g *Group) Metrics() *Metrics { return g.metrics }

// TopKStats sums the top-k evaluator counters over every shard engine —
// the group-wide view the server reports under /stats.
func (g *Group) TopKStats() index.TopKStats {
	var sum index.TopKStats
	for _, e := range g.engines {
		st := e.TopKStats()
		sum.Visited += st.Visited
		sum.Skipped += st.Skipped
	}
	return sum
}

// ResetTopKStats zeroes every shard engine's evaluator counters.
func (g *Group) ResetTopKStats() {
	for _, e := range g.engines {
		e.ResetTopKStats()
	}
}

// MergeStats sums the prestige-merge counters over every shard engine.
func (g *Group) MergeStats() search.MergeStats {
	var sum search.MergeStats
	for _, e := range g.engines {
		sum.Add(e.MergeStats())
	}
	return sum
}

// ResetMergeStats zeroes every shard engine's merge counters.
func (g *Group) ResetMergeStats() {
	for _, e := range g.engines {
		e.ResetMergeStats()
	}
}

// TokenTablePapers sums the shard indexes' phrase/field token tables; the
// ranges are disjoint, so no paper is counted twice.
func (g *Group) TokenTablePapers() int {
	n := 0
	for _, e := range g.engines {
		n += e.TokenTablePapers()
	}
	return n
}

// SelectContextsContext reports which contexts a query selects. Selection
// metadata is identical on every shard (see NewGroupParts), so shard 0 answers
// for the group.
func (g *Group) SelectContextsContext(ctx context.Context, query string, opts search.Options) ([]search.ContextScore, error) {
	return g.engines[0].SelectContextsContext(ctx, query, opts)
}

// Search is SearchContext with a background context.
func (g *Group) Search(query string, opts search.Options) []search.Result {
	out, _ := g.SearchContext(context.Background(), query, opts)
	return out
}

// SearchContext fans the vector search out to every shard and merges the
// per-shard pages into the exact single-engine page.
func (g *Group) SearchContext(ctx context.Context, query string, opts search.Options) ([]search.Result, error) {
	return g.scatter(ctx, opts, func(e *search.Engine, sopts search.Options) ([]search.Result, error) {
		return e.SearchContext(ctx, query, sopts)
	})
}

// SearchBoolean is SearchBooleanContext with a background context.
func (g *Group) SearchBoolean(query string, opts search.Options) ([]search.Result, error) {
	return g.SearchBooleanContext(context.Background(), query, opts)
}

// SearchBooleanContext fans the boolean search out to every shard and
// merges exactly. Parsing is per shard but pure syntax over the shared
// tokenizer, so an unparsable query fails identically everywhere.
func (g *Group) SearchBooleanContext(ctx context.Context, query string, opts search.Options) ([]search.Result, error) {
	return g.scatter(ctx, opts, func(e *search.Engine, sopts search.Options) ([]search.Result, error) {
		return e.SearchBooleanContext(ctx, query, sopts)
	})
}

// scatter runs one query on every shard (offset folded into the shard
// limit, the standard scatter-gather transformation) and merges the sorted
// per-shard pages. The fan-out is bounded by Options.FanOut; per-shard
// latency and the max-shard/merge split land in the metrics. The first
// shard error (in shard order, deterministically) aborts the query — the
// in-process shape shares one process, so partial answers are a transport
// concern handled by the HTTP coordinator, not here.
func (g *Group) scatter(ctx context.Context, opts search.Options, run func(*search.Engine, search.Options) ([]search.Result, error)) ([]search.Result, error) {
	sopts := ShardOptions(opts)
	n := len(g.engines)
	pages := make([][]search.Result, n)
	errs := make([]error, n)
	var maxShard AtomicMaxDuration
	par.For(n, g.fanout, func(i int) {
		t0 := time.Now()
		pages[i], errs[i] = run(g.engines[i], sopts)
		maxShard.Observe(time.Since(t0))
		g.metrics.ObserveShard(i, errs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	out := MergePages(pages, opts)
	g.metrics.ObserveSearch(maxShard.Load(), time.Since(t0))
	return out, nil
}

// ShardOptions maps a client's paging request onto the per-shard request:
// every shard must return its own top offset+limit results (offset cannot
// be applied shard-locally — the papers skipped by the global offset are
// distributed across shards), and threshold and selection knobs pass
// through unchanged.
func ShardOptions(opts search.Options) search.Options {
	sopts := opts
	sopts.Offset = 0
	if opts.Limit > 0 && opts.Offset > 0 {
		sopts.Limit = opts.Offset + opts.Limit
	}
	return sopts
}
