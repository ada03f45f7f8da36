// Package stats provides the small statistical toolkit used by the
// evaluation harness: central moments, medians, histograms, the paper's
// separability standard deviation, and rank correlations for the
// HITS-vs-PageRank ablation.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (average of the two middle elements for
// even length), or 0 for empty input. The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Histogram counts xs into n equal-width bins over [lo, hi]. Values at hi
// fall into the last bin; values outside [lo, hi] are clamped.
func Histogram(xs []float64, n int, lo, hi float64) []int {
	if n <= 0 || hi <= lo {
		return nil
	}
	bins := make([]int, n)
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		bins[i]++
	}
	return bins
}

// Percentages converts integer counts into percentages of their sum; all
// zeros for an empty or zero-sum input.
func Percentages(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = 100 * float64(c) / float64(total)
	}
	return out
}

// Pearson returns the Pearson linear correlation of paired samples, or 0
// when either side has zero variance or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of paired samples (Pearson
// over fractional ranks, with ties averaged).
func Spearman(xs, ys []float64) float64 {
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks converts values into 1-based fractional ranks with ties receiving
// the average of the ranks they span.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(float64(i+j)/2) + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// SeparabilitySD implements the paper's separability metric (§5.2): scores
// (assumed in [0,1]) are split into nbins equal ranges; Xi is the percentage
// of papers whose score falls in range i; the statistic is the standard
// deviation of the Xi around the uniform expectation 100/nbins.
//
// SD = sqrt( (1/n) Σ (Xi − 100/n)² )
//
// 0 means perfectly uniform (best separability); large values mean the mass
// concentrates in few ranges (papers become indistinguishable).
func SeparabilitySD(scores []float64, nbins int) float64 {
	if nbins <= 0 || len(scores) == 0 {
		return 0
	}
	counts := Histogram(scores, nbins, 0, 1)
	perc := Percentages(counts)
	want := 100 / float64(nbins)
	var s float64
	for _, p := range perc {
		d := p - want
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(nbins))
}
