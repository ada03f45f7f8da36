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
// contained in the union of the per-shard top offset+limit pages, and a
// k-way merge of the sorted pages under the engine's own total order
// reconstructs the single-engine page byte for byte (the golden batteries
// pin this).
//
// This package holds what both sides of that deployment share: the range
// engines a shard process serves (RangeEngineParts), the paging
// transformation and the exact merge (ShardOptions, MergePages), and the
// fan-out counters (Metrics). The fan-out itself — multi-process shards
// behind POST /shard/search — lives in internal/server's Coordinator.
package shard

import (
	"context"
	"fmt"
	"sync"

	"ctxsearch/internal/contextset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/par"
	"ctxsearch/internal/prestige"
	"ctxsearch/internal/search"
)

// Group is every range engine of an n-way split, bound in one call: what a
// cluster's shard processes hold between them, in one process, for tests and
// the benchmark's per-layer tour. Query range i through Engine(i) with
// ShardOptions and merge with MergePages, as the coordinator does.
type Group struct {
	engines []*search.Engine
}

// Options is NewGroupParts' last parameter; it has no fields.
type Options struct{}

// NewGroupParts partitions the corpus into n contiguous paper-ID ranges and
// binds one engine per range (see RangeEngineParts); cs must be the set m
// scores. The context set and relevancy weights are shared — context
// selection is identical on every shard because the sliced matrices keep
// the full context list — and the
// sliced parts keep the global term dictionary, so per-shard engines weight
// queries exactly as the single engine does and the merged pages stay
// byte-identical. n is clamped to [1, corpus size].
func NewGroupParts(a *corpus.Analyzer, parts *index.Parts, cs *contextset.ContextSet, m *prestige.Matrix, w search.Weights, n int, _ Options) (*Group, error) {
	if cs != m.ContextSet() {
		return nil, fmt.Errorf("shard: the context set is not the one the prestige matrix scores")
	}
	ranges := par.Shards(a.Corpus().Len(), n)
	g := &Group{engines: make([]*search.Engine, len(ranges))}
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, _, err := RangeEngineParts(a, parts, m, w, i, n)
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
// the range (its rows narrowed, its column and context set shared), so a
// shard is query-ready in O(terms + its own postings). The split is
// par.Shards', so every process of a cluster (and a Group) with the
// same n partitions identically; n is clamped to the corpus size,
// and an index beyond the resulting ranges is an error.
func RangeEngineParts(a *corpus.Analyzer, parts *index.Parts, m *prestige.Matrix, w search.Weights, i, n int) (*search.Engine, par.Shard, error) {
	ranges := par.Shards(a.Corpus().Len(), n)
	if i < 0 || i >= len(ranges) {
		return nil, par.Shard{}, fmt.Errorf("shard index %d out of range (corpus of %d papers splits into %d shards)", i, a.Corpus().Len(), len(ranges))
	}
	r := ranges[i]
	ix, err := index.FromParts(a, parts.SliceRange(r.Lo, r.Hi))
	if err != nil {
		return nil, par.Shard{}, err
	}
	return search.NewEngine(ix, m.Slice(r.Lo, r.Hi), w), r, nil
}

// NumShards returns the number of shards in the group.
func (g *Group) NumShards() int { return len(g.engines) }

// Engine returns the i-th shard's engine.
func (g *Group) Engine(i int) *search.Engine { return g.engines[i] }

// SearchContext answers a vector query from every range in turn and merges
// the pages exactly. bench/tour.go times it as shard.group_search_us.
func (g *Group) SearchContext(ctx context.Context, query string, opts search.Options) ([]search.Result, error) {
	sopts := ShardOptions(opts)
	pages := make([][]search.Result, len(g.engines))
	for i, e := range g.engines {
		var err error
		if pages[i], err = e.SearchContext(ctx, query, sopts); err != nil {
			return nil, err
		}
	}
	return MergePages(pages, opts), nil
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
