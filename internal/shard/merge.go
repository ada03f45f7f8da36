package shard

import "ctxsearch/internal/search"

// MergePages merges per-shard ranked pages into the page a single engine
// would serve for opts, exactly.
//
// Contract: every page is sorted in search.SortResults order (descending
// relevancy, ties by ascending paper ID — the order every engine and the
// shard HTTP endpoint emit), pages hold disjoint papers, and each page
// contains its shard's top ShardOptions(opts) results. Under those
// invariants the global top offset+limit results are all present in the
// input (restricting a ranking to a subset of papers can only improve a
// paper's rank), and a k-way merge — take the best page head, offset+limit
// times, or until every row is taken when the request is unbounded —
// yields them in order; Paginate then cuts the single-engine page byte for
// byte.
func MergePages(pages [][]search.Result, opts search.Options) []search.Result {
	n := 0
	for _, p := range pages {
		n += len(p)
	}
	if opts.Limit > 0 {
		if k := max(opts.Offset, 0) + opts.Limit; k > 0 {
			n = min(n, k)
		}
	}
	out := make([]search.Result, 0, n)
	heads := make([]int, len(pages))
	for len(out) < n {
		best := -1
		for i, p := range pages {
			if heads[i] < len(p) && (best < 0 || search.WorseResult(pages[best][heads[best]], p[heads[i]])) {
				best = i
			}
		}
		out = append(out, pages[best][heads[best]])
		heads[best]++
	}
	return search.Paginate(out, opts)
}
