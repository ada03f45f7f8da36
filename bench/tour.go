//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"ctxsearch/internal/index"
	"ctxsearch/internal/search"
	"ctxsearch/internal/server"
	"ctxsearch/internal/shard"
	"ctxsearch/internal/stats"
)

// maxTourRequests is how many requests of a workload the traced pass
// replays; a time budget may end it sooner.
const maxTourRequests = 2000

// snippetOptions are the options the server renders result rows with.
var snippetOptions = index.SnippetOptions{Window: 24, Pre: "**", Post: "**"}

// tour is the traced pass: it replays the workload's requests one at a time,
// in this process, through the public functions of each layer on the
// request's path, with a span around every call. It returns the per-layer
// metrics the spans and counts give, and how many requests it replayed.
//
// One request's spans, by parent:
//
//	request
//	├ server.handler            ServeHTTP of the cache-off handler (HTTP workloads)
//	├ search.engine_total       the engine call the handler makes
//	├ layers                    the same engine work, call by call
//	│ ├ index.boolean_parse     (boolean requests)
//	│ ├ search.select_contexts
//	│ ├ corpus.query_vector     (vector requests)
//	│ ├ index.union_pass | index.boolean_eval
//	│ └ index.topk              the union pass again with Limit 10 (vector requests)
//	├ render                    the rows the handler renders (HTTP workloads)
//	│ ├ index.snippet           one per row
//	│ └ server.json_marshal
//	├ cache.hit                 second ServeHTTP of a cache-on handler (hot_cache)
//	├ shard.group_search, shard.merge_pages, shard.rpc   (cluster_page)
func (l *library) tour(tr *tracer, workload string, reqs []request, budget time.Duration, e *env, dep *deployment) (values, int, error) {
	ctx := context.Background()
	overHTTP := workload != "library_batch"
	ix, an := l.sys.Index(), l.sys.Analyzer()
	noCache := l.handler(true)
	var cached *server.Server
	if workload == "hot_cache" {
		cached = l.handler(false)
	}
	var group *shard.Group
	if workload == "cluster_page" {
		var err error
		if group, err = shard.NewGroupParts(an, l.parts, l.cs, l.matrix, l.cfg.Relevancy, 2, shard.Options{}); err != nil {
			return nil, 0, err
		}
	}

	var nCtx, nHits, respBytes, rpcBytes, unattributed []float64
	var visited, skipped uint64
	var hitsTotal, rowsTotal, fetched, served, vectorReqs int
	start := time.Now()
	n := 0
	for ; n < len(reqs) && n < maxTourRequests && time.Since(start) < budget; n++ {
		r := reqs[n]
		opts := search.Options{Limit: r.Limit}
		root := tr.begin("request", -1, n)
		var handlerID int
		if overHTTP {
			handlerID = tr.begin("server.handler", root, n)
			code, body := serve(noCache, r)
			tr.end(handlerID)
			if code != http.StatusOK {
				return nil, n, fmt.Errorf("traced pass: %s answered %d", r.Path, code)
			}
			respBytes = append(respBytes, float64(len(body)))
		}
		engineID := tr.begin("search.engine_total", root, n)
		res, err := l.run(ctx, r, opts)
		tr.end(engineID)
		if err != nil {
			return nil, n, fmt.Errorf("traced pass: %q: %w", r.Query, err)
		}

		lay := tr.begin("layers", root, n)
		var id int
		var bq index.Query
		if r.Boolean {
			id = tr.begin("index.boolean_parse", lay, n)
			bq, err = ix.ParseQuery(r.Query)
			tr.end(id)
			if err != nil {
				return nil, n, err
			}
		}
		// The calls below fail only when their context is cancelled, and
		// this one never is: their errors are dropped.
		id = tr.begin("search.select_contexts", lay, n)
		ctxs, _ := l.eng.SelectContextsContext(ctx, r.Query, search.Options{})
		tr.end(id)
		union := l.unionOf(ctxs)
		var hits []index.Hit
		if r.Boolean {
			id = tr.begin("index.boolean_eval", lay, n)
			hits, _ = ix.SearchQueryContext(ctx, bq, index.Options{WithinSet: union})
			tr.end(id)
		} else {
			id = tr.begin("corpus.query_vector", lay, n)
			qv := an.QueryVector(r.Query)
			tr.end(id)
			id = tr.begin("index.union_pass", lay, n)
			hits, _ = ix.SearchVectorContext(ctx, qv, index.Options{WithinSet: union})
			tr.end(id)
			// The pass is sequential, so the counter deltas belong to this
			// one query.
			st0 := ix.TopKStats()
			id = tr.begin("index.topk", lay, n)
			_, _ = ix.SearchVectorContext(ctx, qv, index.Options{WithinSet: union, Limit: 10})
			tr.end(id)
			st1 := ix.TopKStats()
			visited += st1.Visited - st0.Visited
			skipped += st1.Skipped - st0.Skipped
			vectorReqs++
		}
		tr.end(lay)
		nCtx = append(nCtx, float64(len(ctxs)))
		nHits = append(nHits, float64(len(hits)))
		hitsTotal += len(hits)
		rowsTotal += len(res)

		if overHTTP {
			rend := tr.begin("render", root, n)
			rows := make([]server.SearchResult, 0, len(res))
			for _, hit := range res {
				p := l.corpus.Paper(hit.Doc)
				id = tr.begin("index.snippet", rend, n)
				snip := ix.Snippet(hit.Doc, r.Query, snippetOptions)
				tr.end(id)
				rows = append(rows, server.SearchResult{
					PaperID: int(hit.Doc), PMID: p.PMID, Year: p.Year, Title: p.Title, Snippet: snip,
					Relevancy: hit.Relevancy, Prestige: hit.Prestige, Match: hit.Match,
					Context: string(hit.Context), ContextName: l.onto.Term(hit.Context).Name,
				})
			}
			id = tr.begin("server.json_marshal", rend, n)
			_, _ = json.Marshal(server.SearchResponse{Query: r.Query, Results: rows})
			tr.end(id)
			tr.end(rend)
			// The part of this request's handler time that the engine call
			// and the replayed rendering do not account for.
			unattributed = append(unattributed, 1-float64(tr.dur(engineID)+tr.dur(rend))/float64(tr.dur(handlerID)))
		}

		if cached != nil {
			serve(cached, r) // a miss fills the cache, so the next call hits
			id = tr.begin("cache.hit", root, n)
			serve(cached, r)
			tr.end(id)
		}
		if group != nil {
			id = tr.begin("shard.group_search", root, n)
			_, _ = group.SearchContext(ctx, r.Query, opts)
			tr.end(id)
			pages := make([][]search.Result, group.NumShards())
			for i := range pages {
				pages[i], _ = group.Engine(i).SearchContext(ctx, r.Query, shard.ShardOptions(opts))
				fetched += len(pages[i])
			}
			id = tr.begin("shard.merge_pages", root, n)
			merged := shard.MergePages(pages, opts)
			tr.end(id)
			served += len(merged)
			id = tr.begin("shard.rpc", root, n)
			nb, err := shardRPC(e.client, dep.shard, r)
			tr.end(id)
			if err != nil {
				return nil, n, err
			}
			rpcBytes = append(rpcBytes, float64(nb))
		}
		tr.end(root)
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("traced pass replayed no request")
	}

	v := values{
		"search.select_contexts_us": tr.medianUS("search.select_contexts"),
		"search.contexts_selected":  stats.Median(nCtx),
		"search.engine_total_us":    tr.medianUS("search.engine_total"),
		"search.union_hits":         stats.Median(nHits),
		"corpus.query_vector_us":    tr.medianUS("corpus.query_vector"),
		"index.union_pass_us":       tr.medianUS("index.union_pass"),
		"index.topk_us":             tr.medianUS("index.topk"),
		"index.boolean_parse_us":    tr.medianUS("index.boolean_parse"),
		"index.boolean_eval_us":     tr.medianUS("index.boolean_eval"),
		"index.snippet_us":          tr.medianUS("index.snippet"),
		"server.handler_us":         tr.medianUS("server.handler"),
		"server.json_marshal_us":    tr.medianUS("server.json_marshal"),
		"server.response_bytes":     stats.Median(respBytes),
		"cache.hit_us":              tr.medianUS("cache.hit"),
		"shard.group_search_us":     tr.medianUS("shard.group_search"),
		"shard.merge_pages_us":      tr.medianUS("shard.merge_pages"),
		"shard.rpc_us":              tr.medianUS("shard.rpc"),
		"shard.rpc_bytes":           stats.Median(rpcBytes),
	}
	// search.merge_us is what remains of the engine call after the parts
	// that can be called on their own: the union bitset, the prestige
	// merge, the sort and the pagination.
	v["search.merge_us"] = v["search.engine_total_us"] - v["search.select_contexts_us"] -
		v["corpus.query_vector_us"] - v["index.union_pass_us"] -
		v["index.boolean_parse_us"] - v["index.boolean_eval_us"]
	if hitsTotal > 0 {
		v["search.rows_per_hit"] = float64(rowsTotal) / float64(hitsTotal)
	}
	if vectorReqs > 0 {
		v["index.topk_visited"] = float64(visited) / float64(vectorReqs)
		v["index.topk_skipped"] = float64(skipped) / float64(vectorReqs)
		if visited+skipped > 0 {
			v["index.topk_skip_share"] = float64(skipped) / float64(visited+skipped)
		}
	}
	if served > 0 {
		v["shard.rows_fetched_per_row_served"] = float64(fetched) / float64(served)
	}
	if overHTTP {
		v["server.render_us"] = v["server.handler_us"] - v["search.engine_total_us"]
		v["trace.unattributed_share"] = stats.Median(unattributed)
	}

	sample := reqs[:min(n, 300)]
	v["search.select_contexts_allocs"], _ = allocsPer(len(sample), func(i int) {
		_, _ = l.eng.SelectContextsContext(ctx, sample[i].Query, search.Options{})
	})
	if overHTTP {
		// The recorder and request the replay itself allocates are measured
		// with an empty handler and taken off.
		idle := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
		a0, b0 := allocsPer(len(sample), func(i int) { serve(idle, sample[i]) })
		a1, b1 := allocsPer(len(sample), func(i int) { serve(noCache, sample[i]) })
		v["server.allocs_per_req"], v["server.alloc_bytes_per_req"] = a1-a0, b1-b0
	}
	v["trace.overhead_share"] = l.traceOverhead(sample)
	return v, n, nil
}

// allocsPer returns the heap allocations and bytes per call of fn over n
// calls on an otherwise idle process.
func allocsPer(n int, fn func(i int)) (allocs, size float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// traceOverhead times each engine call of the sample without and with a
// span around it, back to back in alternating order, and returns the median
// share by which the span slows the call.
func (l *library) traceOverhead(sample []request) float64 {
	ctx := context.Background()
	tr := newTracer()
	call := func(i int, traced bool) time.Duration {
		r := sample[i]
		t0 := time.Now()
		if traced {
			id := tr.begin("search.engine_total", -1, i)
			_, _ = l.run(ctx, r, search.Options{Limit: r.Limit})
			tr.end(id)
		} else {
			_, _ = l.run(ctx, r, search.Options{Limit: r.Limit})
		}
		return time.Since(t0)
	}
	var shares []float64
	for round := 0; round < 4; round++ {
		for i := range sample {
			tracedFirst := (i+round)%2 == 0
			a := call(i, tracedFirst)
			b := call(i, !tracedFirst)
			if !tracedFirst {
				a, b = b, a
			}
			shares = append(shares, float64(a-b)/float64(b))
		}
	}
	return stats.Median(shares)
}

// shardRPC posts one request straight to a shard's internal endpoint, the
// call the coordinator makes per range, and returns the response size.
func shardRPC(client *http.Client, base string, r request) (int, error) {
	payload, err := json.Marshal(server.ShardSearchRequest{Q: r.Query, Boolean: r.Boolean, Limit: r.Limit})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(base+"/shard/search", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /shard/search: %d %.200s", resp.StatusCode, body)
	}
	return len(body), nil
}
