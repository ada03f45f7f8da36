//go:build linux

package main

import (
	"slices"

	"ctxsearch/internal/stats"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. An empty input reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int((p/100)*float64(n) + 0.999999999)
	return sorted[max(1, min(rank, n))-1]
}

// bestMean is the slice aggregate: the mean of the k best per-slice values,
// the lowest when lower is better and the highest otherwise. A neighbour on
// this shared host can only slow a slice down, so the best slices are the
// least disturbed ones; the distance to the median slice is published as
// loadgen.slice_spread.
func bestMean(perSlice []float64, k int, lowerIsBetter bool) float64 {
	s := slices.Clone(perSlice)
	slices.Sort(s)
	if !lowerIsBetter {
		slices.Reverse(s)
	}
	return stats.Mean(s[:min(k, len(s))])
}
