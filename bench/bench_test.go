//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ctxsearch"
)

func TestPercentileAndSliceAggregate(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	slices := []float64{7, 3, 9, 1, 5}
	if got := bestMean(slices, 3, true); got != 3 {
		t.Errorf("mean of the 3 lowest = %v, want 3", got)
	}
	if got := bestMean(slices, 3, false); got != 7 {
		t.Errorf("mean of the 3 highest = %v, want 7", got)
	}
	if !reflect.DeepEqual(slices, []float64{7, 3, 9, 1, 5}) {
		t.Errorf("bestMean reordered its input: %v", slices)
	}
}

// A slice the host slowed down reads longer on every clock by the same
// factor, the load generator's own included: calibrated, it is the same
// slice. A slower server is not.
func TestCalibrateCancelsTheHostsSpeed(t *testing.T) {
	quiet := sliceStat{p50: 2, serverMs: 1.5, clientMs: 0.2}
	slowed := func(s sliceStat, f float64) sliceStat {
		return sliceStat{s.p50 * f, s.serverMs * f, s.clientMs * f}
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	slices := []sliceStat{quiet, slowed(quiet, 1.4), slowed(quiet, 0.9), slowed(quiet, 2)}
	p50, cpu, spread := calibrate(slices, 0.2)
	if !near(p50, 2) || !near(cpu, 1.5) {
		t.Errorf("calibrated p50 %v cpu %v, want 2 and 1.5", p50, cpu)
	}
	if !near(spread, (2+2.8)/2/1.8) {
		t.Errorf("slice spread %v, want the median raw p50 over the best", spread)
	}
	// Half the reference: the machine counts as twice as fast.
	if p50, cpu, _ = calibrate(slices, 0.1); !near(p50, 1) || !near(cpu, 0.75) {
		t.Errorf("at half the reference: p50 %v cpu %v, want 1 and 0.75", p50, cpu)
	}
	regressed := sliceStat{p50: 3, serverMs: 2.5, clientMs: 0.2}
	if p50, cpu, _ = calibrate([]sliceStat{regressed, slowed(regressed, 1.3), slowed(regressed, 1.1)}, 0.2); !near(p50, 3) || !near(cpu, 2.5) {
		t.Errorf("a slower server: p50 %v cpu %v, want 3 and 2.5", p50, cpu)
	}
	// A slice without a reading of the load generator's cost is left out.
	if p50, _, _ = calibrate([]sliceStat{quiet, {p50: 9, serverMs: 9}}, 0.2); !near(p50, 2) {
		t.Errorf("slice without a calibrator counted: p50 %v", p50)
	}
	if p50, cpu, spread = calibrate(nil, 0.2); p50 != 0 || cpu != 0 || spread != 0 {
		t.Errorf("no slices: %v %v %v", p50, cpu, spread)
	}
}

// Every workload has its calibration constant.
func TestEveryWorkloadHasAReference(t *testing.T) {
	for _, w := range workloads {
		if referenceClientMs[w.Name] <= 0 {
			t.Errorf("workload %q has no referenceClientMs", w.Name)
		}
	}
	if len(referenceClientMs) != len(workloads) {
		t.Errorf("%d references for %d workloads", len(referenceClientMs), len(workloads))
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in this package are
// what the command prints. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ:\n%v\n%v", b.Workloads, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", b.PerLayer, perLayer)
	}
}

// Every listed metric is printed by name and is in the result line, even
// one the run did not measure.
func TestPrintOutcomePrintsEveryListedMetric(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		var out bytes.Buffer
		o := outcome{attempted: 3, metrics: values{defs[0].Name: 1.5, "note.extra": 2}}
		if err := printOutcome(&out, defs, o); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !res.Correct || res.Attempted != 3 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("result line %+v", res)
		}
		for _, d := range defs {
			if mv, ok := res.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
				t.Errorf("metric %q missing from the result line or unit %q", d.Name, mv.Unit)
			}
			if !strings.Contains(out.String(), d.Name+" ") {
				t.Errorf("metric %q not printed", d.Name)
			}
		}
		if res.Metrics[defs[0].Name].Value != 1.5 {
			t.Errorf("measured value lost: %+v", res.Metrics[defs[0].Name])
		}
	}
}

func TestBuildStagesParse(t *testing.T) {
	out := "built text context set\noffline build stages:\n" +
		"  analyze           832.217ms     1000 papers       1202 papers/s\n" +
		"  contextset-text   1.174953s     1000 papers        851 papers/s\n" +
		"  state-save          9.867ms\n" +
		"  total              2.44333s  workers 2, peak goroutines 4\n"
	got := parseBuildStages(out)
	if got["analyze"] != 0.832217 || got["contextset-text"] != 1.174953 || got["state-save"] != 0.009867 {
		t.Errorf("parsed stages %v", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 90, Parent: 0},
		{Name: "c", Start: 55, End: 60, Parent: 2},
	}}
	tr.selfTimes()
	for i, want := range []int64{30, 30, 35, 5} {
		if tr.spans[i].Self != want {
			t.Errorf("span %d self = %d, want %d", i, tr.spans[i].Self, want)
		}
	}
}

// tinyLibrary builds a small system in-process, once for all tests; the
// generators only need the engine, the ontology, the corpus and the scored
// contexts.
var tinyLibrary = sync.OnceValues(func() (*library, error) {
	cfg := ctxsearch.DefaultConfig()
	cfg.Papers, cfg.OntologyTerms = 100, 30
	sys, err := ctxsearch.NewSyntheticSystem(cfg)
	if err != nil {
		return nil, err
	}
	cs := sys.BuildTextContextSet()
	m := sys.ScoreText(cs).Freeze()
	return &library{cfg: cfg, onto: sys.Ontology, corpus: sys.Corpus, sys: sys, cs: cs, matrix: m, eng: sys.EngineFrozen(cs, m)}, nil
})

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	l, err := tinyLibrary()
	if err != nil {
		t.Fatal(err)
	}
	names := l.contextNames()
	gen := func(seed int64) ([]string, []string) {
		return vocabulary(l.onto, l.corpus, names, seed, 64, l.usable(false)),
			booleanExpressions(names, seed, l.usable(true))
	}
	vocab, exprs := gen(7)
	vocab2, exprs2 := gen(7)
	if !reflect.DeepEqual(vocab, vocab2) || !reflect.DeepEqual(exprs, exprs2) {
		t.Fatal("the same seed gave different vocabularies")
	}
	if len(vocab) < 64 || len(exprs) < 10 {
		t.Fatalf("too few usable strings: %d queries, %d expressions", len(vocab), len(exprs))
	}
	other, _ := gen(8)
	if reflect.DeepEqual(vocab, other) {
		t.Error("another seed gave the same vocabulary")
	}
	for _, w := range workloads {
		a, b := requestsFor(w.Name, 7, vocab, exprs), requestsFor(w.Name, 7, vocab, exprs)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different request lists", w.Name)
		}
		if c := requestsFor(w.Name, 8, vocab, exprs); w.Name != "library_batch" && reflect.DeepEqual(a, c) {
			t.Errorf("%s: another seed gave the same request list", w.Name)
		}
		for _, r := range a[:50] {
			u, err := url.Parse(r.Path)
			if err != nil || u.Query().Get("q") != r.Query || (u.Query().Get("boolean") == "1") != r.Boolean {
				t.Fatalf("%s: path %q does not encode %+v", w.Name, r.Path, r)
			}
		}
	}
	if !reflect.DeepEqual(requestsFor("first_page", 7, vocab, exprs), requestsFor("cluster_page", 7, vocab, exprs)) {
		t.Error("first_page and cluster_page must replay the identical list")
	}
	for _, r := range requestsFor("hot_cache", 7, vocab, exprs) {
		if r.Key < 0 || r.Key >= 2*len(vocab) || (r.Limit != 10 && r.Limit != 20) {
			t.Fatalf("hot_cache request outside its key space: %+v", r)
		}
	}
}

// The oracle accepts the handler's own pages and the fingerprint tells two
// rankings apart.
func TestOracleOnTinyLibrary(t *testing.T) {
	l, err := tinyLibrary()
	if err != nil {
		t.Fatal(err)
	}
	vocab := vocabulary(l.onto, l.corpus, l.contextNames(), 1, 32, l.usable(false))
	reqs := uniformRequests(rngFor(1, 3), vocab, 64, 10, false)
	pages, err := l.expectedPages(reqs, len(vocab))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(pages[reqs[0].Key], []byte(`"paper_id":`), []byte(`"paper_id":1`), 1)
	if err := l.checkExhaustive(reqs[0], tampered); err == nil {
		t.Error("a page with a changed paper id passed the exhaustive check")
	}
	lists, err := l.expectedLists(libraryRequests(vocab))
	if err != nil {
		t.Fatal(err)
	}
	if lists[0] == 0 || lists[0] == fingerprint(nil) {
		t.Errorf("fingerprint of a ranked list = %x", lists[0])
	}
}
