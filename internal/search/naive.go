package search

import (
	"cmp"
	"slices"

	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/prestige"
)

// This file retains the straightforward per-context formulation of
// Search/SearchBoolean that the optimized single-pass implementation in
// search.go replaced: one full index pass per selected context restricted to
// that context's own members, and map-form prestige scores (its own copy of
// the matrix, see scoreMaps), merged through a map keyed by paper. It is the executable specification —
// the golden tests assert the optimized path returns exactly the same
// results — and the honest baseline for the query-path benchmarks. It is not
// wired into any production caller.

// searchNaive is the reference implementation of Search.
func (e *Engine) searchNaive(query string, opts Options) []Result {
	ctxs := e.SelectContexts(query, opts)
	if len(ctxs) == 0 {
		return nil
	}
	qv := e.ix.Analyzer().QueryVector(query)
	out, _ := e.mergeNaive(ctxs, e.members(ctxs), opts, func(within bitset.Set) ([]index.Hit, error) {
		return e.ix.SearchVector(qv, index.Options{WithinSet: within}), nil
	})
	return out
}

// searchBooleanNaive is the reference implementation of SearchBoolean.
func (e *Engine) searchBooleanNaive(query string, opts Options) ([]Result, error) {
	q, err := e.ix.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	ctxs := e.SelectContexts(query, opts)
	if len(ctxs) == 0 {
		return nil, nil
	}
	return e.mergeNaive(ctxs, e.members(ctxs), opts, func(within bitset.Set) ([]index.Hit, error) {
		return e.ix.SearchQuery(q, index.Options{WithinSet: within})
	})
}

// members returns the selected contexts' memberships as bitsets, each set
// from the context set's run.
func (e *Engine) members(ctxs []ContextScore) []bitset.Set {
	out := make([]bitset.Set, len(ctxs))
	for i, c := range ctxs {
		for _, p := range e.matrix.ContextSet().Papers(c.Context) {
			out[i].Add(int(p))
		}
	}
	return out
}

// mergeNaive is the reference merge: per selected context, in selection
// order, the hits hitsWithin returns for the context's members (members[i])
// are scored, and a later context replaces an earlier one only on a
// strictly greater relevancy; the survivors are ranked by relevancy
// descending, ties by paper ascending, and paginated. The order is written
// out here rather than taken from SortResults, which the engine ranks its
// tie runs with: a reference that shared it could not see a wrong tie rule.
func (e *Engine) mergeNaive(ctxs []ContextScore, members []bitset.Set, opts Options, hitsWithin func(members bitset.Set) ([]index.Hit, error)) ([]Result, error) {
	scores := scoreMaps(e.matrix)
	best := make(map[corpus.PaperID]Result)
	for i, cscore := range ctxs {
		ctx := cscore.Context
		if len(members[i]) == 0 {
			continue // no members: nil would mean no restriction
		}
		hits, err := hitsWithin(members[i])
		if err != nil {
			return nil, err
		}
		for _, h := range hits {
			p := scores[ctx][h.Doc]
			if e.weights.ContextWeighted {
				p *= cscore.Score
			}
			r := float64(e.weights.Prestige*p) + float64(e.weights.Matching*h.Score)
			if r < opts.Threshold {
				continue
			}
			if cur, ok := best[h.Doc]; !ok || r > cur.Relevancy {
				best[h.Doc] = Result{Doc: h.Doc, Relevancy: r, Match: h.Score, Prestige: p, Context: ctx}
			}
		}
	}
	out := make([]Result, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Result) int {
		if a.Relevancy != b.Relevancy {
			return -cmp.Compare(a.Relevancy, b.Relevancy)
		}
		return cmp.Compare(a.Doc, b.Doc)
	})
	return Paginate(out, opts), nil
}

// scoreMaps copies a matrix into per-context paper → score maps, so the
// reference looks a score up without Run.Get, the binary search the
// engine's fold uses.
func scoreMaps(m *prestige.Matrix) map[ontology.TermID]map[corpus.PaperID]float64 {
	out := make(map[ontology.TermID]map[corpus.PaperID]float64, m.NumContexts())
	for i, ctx := range m.Contexts() {
		r := m.RunAt(i)
		row := make(map[corpus.PaperID]float64, len(r.Docs))
		for j, d := range r.Docs {
			row[d] = r.Vals[j]
		}
		out[ctx] = row
	}
	return out
}
