//go:build linux

package main

import (
	"fmt"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// aaRuns is how many seeds each set of an A/A comparison runs per workload,
// the driver's number.
const aaRuns = 10

// runAA is the benchmark's own acceptance test: the untraced suite twice on
// one build, each set over the same aaRuns seeds, then per end-to-end metric
// and workload the spread of each set (interquartile distance over median)
// and the share by which the second set's median is worse than the
// first's, each against the metric's bound. Any line marked FAIL means the
// benchmark cannot resolve a regression of that size on this host.
func (e *env) runAA(workload string, seconds int) error {
	names := []string{workload}
	if workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	base := e.seed
	// sets[set][workload][metric] holds one value per seed.
	var sets [2]map[string]map[string][]float64
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
		for _, w := range names {
			sets[set][w] = map[string][]float64{}
			for i := 0; i < aaRuns; i++ {
				e.seed = base + int64(i)
				o, err := e.runOnce(w, seconds, false)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", set+1, w, e.seed, err)
				}
				if !o.correct() {
					return fmt.Errorf("set %d %s seed %d: %d of %d requests failed", set+1, w, e.seed, o.failed, o.attempted)
				}
				for _, d := range endToEnd {
					sets[set][w][d.Name] = append(sets[set][w][d.Name], o.metrics[d.Name])
				}
				fmt.Printf("set %d %-13s seed %-3d p50_ms %.4f (raw %.4f) cpu_ms_per_req %.4f (raw %.4f) client_ms_per_req %.5f setup_s %.3f (raw %.3f)\n",
					set+1, w, e.seed, o.metrics["p50_ms"], o.metrics["loadgen.raw_p50_ms"], o.metrics["cpu_ms_per_req"],
					o.metrics["loadgen.raw_cpu_ms_per_req"], o.metrics["loadgen.client_ms_per_req"], o.metrics["setup_s"], o.metrics["loadgen.raw_setup_s"])
			}
		}
	}
	failures := 0
	fmt.Printf("\n%-13s %-15s %10s %10s %8s %8s %8s %6s\n", "workload", "metric", "median1", "median2", "spread1", "spread2", "drift", "bound")
	for _, w := range names {
		for _, d := range endToEnd {
			a1, m1, b1 := quartiles(sets[0][w][d.Name])
			a2, m2, b2 := quartiles(sets[1][w][d.Name])
			s1, s2 := (b1-a1)/m1, (b2-a2)/m2
			drift := (m2 - m1) / m1
			if d.Better == "higher" {
				drift = -drift
			}
			verdict := "steady"
			switch {
			case drift > d.Bound || (d.Name != "setup_s" && (s1 > d.Bound || s2 > d.Bound)):
				verdict = "FAIL"
				failures++
			case d.Name != "setup_s" && (s1 > d.Bound/3 || s2 > d.Bound/3):
				verdict = "ok, spread above a third of the bound"
			}
			fmt.Printf("%-13s %-15s %10.4f %10.4f %8.4f %8.4f %+8.4f %6.2f  %s\n", w, d.Name, m1, m2, s1, s2, drift, d.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d metric x workload pairs do not hold their bound", failures)
	}
	return nil
}
