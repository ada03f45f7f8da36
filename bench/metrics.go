//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one named metric of the benchmark. The tables below are the
// single source of the names: BENCHMARK.json repeats them (bench_test.go
// checks the two agree) and later issues cite them verbatim.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, with the share of the
// parent's median by which each may get worse. Every run with -trace 0
// reports all of them for its workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"state_mb", "MB", "lower", 0.15},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.15},
}

// perLayer lists the metrics of single layers (layer = module). Every run
// with -trace 1 reports all of them; one that the workload's path does not
// exercise reads 0.
var perLayer = []metricDef{
	{Name: "corpus.query_vector_us", Unit: "us", Better: "lower"},
	{Name: "search.select_contexts_us", Unit: "us", Better: "lower"},
	{Name: "search.select_contexts_allocs", Unit: "count", Better: "lower"},
	{Name: "search.contexts_selected", Unit: "count", Better: "lower"},
	{Name: "search.engine_total_us", Unit: "us", Better: "lower"},
	{Name: "search.merge_us", Unit: "us", Better: "lower"},
	{Name: "search.union_hits", Unit: "count", Better: "lower"},
	{Name: "search.rows_per_hit", Unit: "ratio", Better: "higher"},
	{Name: "index.union_pass_us", Unit: "us", Better: "lower"},
	{Name: "index.topk_us", Unit: "us", Better: "lower"},
	{Name: "index.topk_visited", Unit: "count", Better: "lower"},
	{Name: "index.topk_skipped", Unit: "count", Better: "higher"},
	{Name: "index.topk_skip_share", Unit: "ratio", Better: "higher"},
	{Name: "index.topk_visited_per_req", Unit: "count", Better: "lower"},
	{Name: "index.boolean_parse_us", Unit: "us", Better: "lower"},
	{Name: "index.boolean_eval_us", Unit: "us", Better: "lower"},
	{Name: "index.snippet_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.render_us", Unit: "us", Better: "lower"},
	{Name: "server.json_marshal_us", Unit: "us", Better: "lower"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.alloc_bytes_per_req", Unit: "bytes", Better: "lower"},
	{Name: "cache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "cache.coalesced", Unit: "count", Better: "higher"},
	{Name: "cache.entries", Unit: "count", Better: "lower"},
	{Name: "cache.hit_us", Unit: "us", Better: "lower"},
	{Name: "shard.group_search_us", Unit: "us", Better: "lower"},
	{Name: "shard.merge_pages_us", Unit: "us", Better: "lower"},
	{Name: "shard.rpc_us", Unit: "us", Better: "lower"},
	{Name: "shard.rpc_bytes", Unit: "bytes", Better: "lower"},
	{Name: "shard.rows_fetched_per_row_served", Unit: "ratio", Better: "lower"},
	{Name: "coordinator.max_shard_us", Unit: "us", Better: "lower"},
	{Name: "coordinator.merge_us", Unit: "us", Better: "lower"},
	{Name: "coordinator.overhead_us", Unit: "us", Better: "lower"},
	{Name: "coordinator.retries", Unit: "count", Better: "lower"},
	{Name: "coordinator.failovers", Unit: "count", Better: "lower"},
	{Name: "coordinator.hedges", Unit: "count", Better: "lower"},
	{Name: "store.open_us", Unit: "us", Better: "lower"},
	{Name: "store.bind_us", Unit: "us", Better: "lower"},
	{Name: "store.first_query_us", Unit: "us", Better: "lower"},
	{Name: "store.state_bytes", Unit: "bytes", Better: "lower"},
	{Name: "build.analyze_s", Unit: "s", Better: "lower"},
	{Name: "build.tfidf_warm_s", Unit: "s", Better: "lower"},
	{Name: "build.index_s", Unit: "s", Better: "lower"},
	{Name: "build.posindex_s", Unit: "s", Better: "lower"},
	{Name: "build.contextset_s", Unit: "s", Better: "lower"},
	{Name: "build.score_s", Unit: "s", Better: "lower"},
	{Name: "build.state_save_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.ready_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.raw_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.raw_cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "loadgen.client_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "loadgen.qps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.slice_spread", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.client_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
}

// values holds measured metrics by name.
type values map[string]float64

// outcome is what one run reports: the correctness verdict, the request
// counts, and the metrics of the list the -trace flag selects.
type outcome struct {
	attempted int
	failed    int
	metrics   values
}

// correct reports whether every attempted request succeeded and returned the
// oracle's page.
func (o outcome) correct() bool { return o.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printOutcome writes one "name value unit" line per metric of defs, any
// further measured values as notes, and last the driver's result object:
// exactly the keys correct, attempted, failed and metrics, with every
// metric of defs present (an unmeasured one reads 0).
func printOutcome(w io.Writer, defs []metricDef, o outcome) error {
	listed := make(map[string]bool, len(defs))
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := o.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		listed[d.Name] = true
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	var notes []string
	for name := range o.metrics {
		if !listed[name] {
			notes = append(notes, name)
		}
	}
	sort.Strings(notes)
	for _, name := range notes {
		fmt.Fprintf(w, "note %-31s %14.6g\n", name, o.metrics[name])
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
