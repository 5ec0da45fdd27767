// Package metrics provides the summary statistics the experiment harness
// reports: distribution summaries (mean/percentiles) for JCT analyses,
// accuracy-spread measures for the consistency figures, and loss-curve
// comparison helpers for Figure 9-style plots.
package metrics

import (
	"math"
	"sort"
)

// Summary is a distribution summary.
type Summary struct {
	Count         int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
	// P999 is the 99.9th percentile — the serving tail-latency figure of
	// merit, where dynamic-batching head-of-line blocking shows up first.
	P999 float64
}

// Summarize computes a Summary of xs (xs is not modified).
func Summarize(xs []float64) Summary {
	s := Summary{Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	s.P999 = Percentile(sorted, 0.999)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	n := float64(len(sorted))
	s.Mean = sum / n
	// two-pass variance: the textbook sumsq/n − mean² form cancels
	// catastrophically for large-mean series (it can even go negative,
	// silently zeroing Std); summing squared deviations from the mean is
	// stable regardless of offset
	var sumd2 float64
	for _, v := range sorted {
		d := v - s.Mean
		sumd2 += d * d
	}
	if variance := sumd2 / n; variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	return s
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending-sorted
// slice, with linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Histogram buckets xs by the ascending upper bounds: counts[i] holds the
// number of values ≤ bounds[i] not already counted by an earlier bucket, and
// counts[len(bounds)] is the overflow bucket. Latency reports use it to show
// distribution shape beyond the fixed percentiles of Summary.
func Histogram(xs, bounds []float64) []int {
	counts := make([]int, len(bounds)+1)
	for _, v := range xs {
		i := sort.SearchFloat64s(bounds, v)
		counts[i]++
	}
	return counts
}

// Spread returns max(xs) − min(xs), the accuracy-inconsistency measure of
// Figures 2–3.
func Spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}

// Crossings counts sign changes of a−b — the curve-entanglement measure of
// Figure 4.
func Crossings(a, b []float64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := 0
	for i := 1; i < n; i++ {
		if (a[i-1]-b[i-1])*(a[i]-b[i]) < 0 {
			c++
		}
	}
	return c
}
