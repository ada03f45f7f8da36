//go:build linux

package main

import (
	"sort"
	"sync"

	"ctxsearch/internal/stats"
)

// Calibration. This host is shared, and what its neighbours take does not
// show on any clock of the guest: /proc/stat reports no steal while, for
// minutes at a time, every time measured — wall clock and CPU time alike —
// reads 20 to 60% longer, or set-up takes twice as long. A whole run sits
// inside one such spell, so no choice of slices within the run avoids it.
// What holds still is the ratio between two pieces of work done at the same
// moment. The benchmark therefore times work of its own whose amount never
// changes, next to the work it measures, and reports every timed end-to-end
// metric as measured value x reference / what its own work cost just then,
// where reference is what that work costs on the quiet machine. A calibrated
// time so reads as a time on the quiet machine.
//
// Two pieces of own work serve, each run beside what it calibrates:
//
//   - Under load, the load generator's cost per request: send, receive and
//     compare with the oracle. For the HTTP workloads it is this process's
//     CPU time per request. For library_batch, where server and load
//     generator are one process, it is the time to fingerprint the returned
//     list — the median, because that takes microseconds and the one in a
//     thousand that a preemption lands in would carry a mean.
//   - Around each set-up, speedProbe: a fixed computation on both cores.
//
// The references are medians on the host the benchmark was written on while
// it was quiet. Changing one re-bases the metrics it calibrates, so they
// change only together with the work they describe.

// referenceClientMs is the load generator's cost per request on the quiet
// machine, per workload, in ms.
var referenceClientMs = map[string]float64{
	"first_page":    0.21,
	"hot_cache":     0.10,
	"boolean_page":  0.19,
	"cluster_page":  0.165,
	"library_batch": 0.0095,
}

// referenceProbeMs is speedProbe's result on the quiet machine.
const referenceProbeMs = 3.3

// sliceStat is one slice of a window, per request: the median latency, the
// server's CPU time and the load generator's own cost, all in ms as the
// clocks gave them.
type sliceStat struct {
	p50, serverMs, clientMs float64
}

// calibrate turns the slices of a window into its calibrated median latency
// and server CPU per request — each slice's value times referenceMs over the
// slice's clientMs, then the median over the slices — and the slice spread,
// the median slice's raw p50 over the best slice's.
func calibrate(slices []sliceStat, referenceMs float64) (p50, cpuMsPerReq, spread float64) {
	var raw, p50s, cpus []float64
	for _, s := range slices {
		raw = append(raw, s.p50)
		if s.clientMs > 0 {
			speed := referenceMs / s.clientMs
			p50s = append(p50s, s.p50*speed)
			cpus = append(cpus, s.serverMs*speed)
		}
	}
	if len(p50s) == 0 {
		return 0, 0, 0
	}
	return stats.Median(p50s), stats.Median(cpus), stats.Median(raw) / bestMean(raw, 1, true)
}

// probeUnits is how many units of work each core does in one speedProbe:
// about a seventh of a second on the quiet machine.
const probeUnits = 40

// speedProbe runs a fixed computation on both cores — fill a map from a
// fixed pseudo-random sequence, collect its keys, sort them: hashing,
// allocation, memory and branches, as set-up has them — and returns this
// process's CPU time per unit in ms. Of the candidates tried beside 180
// offline builds, among them an arithmetic loop and an HTTP exchange, its CPU
// time followed the build's wall time best: medians of ten runs stayed within
// 5% while the build's own ranged over 50%.
func speedProbe() float64 {
	cpu0 := selfCPUSeconds()
	var wg sync.WaitGroup
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < probeUnits; i++ {
				probeUnit()
			}
		}()
	}
	wg.Wait()
	return (selfCPUSeconds() - cpu0) * 1000 / (numClients * probeUnits)
}

func probeUnit() int {
	m := make(map[uint32]uint32, 1024)
	x := uint32(2463534242)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		m[x%30000] += x
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	return keys[len(keys)/2]
}
