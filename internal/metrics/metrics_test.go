package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
	if z := Summarize(nil); z.Count != 0 || z.Mean != 0 {
		t.Fatal("empty summary should be zero")
	}
}

// TestSummarizeLargeOffsetStd: regression for catastrophic cancellation.
// With the old sumsq/n − mean² formula, a small-variance series riding a
// large mean (e.g. JCTs measured in nanoseconds since epoch) lost all
// significant digits of the variance — which could even go negative and
// silently zero Std. The two-pass computation is offset-invariant.
func TestSummarizeLargeOffsetStd(t *testing.T) {
	base := []float64{1, 2, 3, 4, 5}
	want := math.Sqrt(2) // population std of 1..5
	for _, offset := range []float64{0, 1e6, 1e9, 1e12} {
		xs := make([]float64, len(base))
		for i, v := range base {
			xs[i] = v + offset
		}
		s := Summarize(xs)
		if math.Abs(s.Std-want) > 1e-3 {
			t.Fatalf("offset %g: Std = %v, want %v (catastrophic cancellation)", offset, s.Std, want)
		}
	}
}

func TestSummarizeConstantSeriesZeroStd(t *testing.T) {
	if s := Summarize([]float64{7.5e11, 7.5e11, 7.5e11}); s.Std != 0 {
		t.Fatalf("constant series Std = %v, want exactly 0", s.Std)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if p := Percentile(sorted, 0.5); p != 5 {
		t.Fatalf("p50 of {0,10} = %v", p)
	}
	if Percentile(sorted, 0) != 0 || Percentile(sorted, 1) != 10 {
		t.Fatal("extremes")
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
	// P999 interpolates within the last gap: on 0..1000 the 99.9th
	// percentile sits exactly at 999
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p := Percentile(xs, 0.999); math.Abs(p-999) > 1e-9 {
		t.Fatalf("p999 of 0..1000 = %v", p)
	}
	s := Summarize(xs)
	if s.P999 < s.P99 || s.P999 > s.Max {
		t.Fatalf("P999 %v outside [P99 %v, Max %v]", s.P999, s.P99, s.Max)
	}
	// on a two-point series P999 must still interpolate, not snap to Max
	if s2 := Summarize([]float64{0, 10}); s2.P999 >= 10 || s2.P999 <= s2.P50 {
		t.Fatalf("two-point P999 = %v", s2.P999)
	}
}

func TestHistogram(t *testing.T) {
	bounds := []float64{1, 2, 4}
	got := Histogram([]float64{0.5, 1, 1.5, 3, 100}, bounds)
	want := []int{2, 1, 1, 1} // ≤1: {0.5, 1}; ≤2: {1.5}; ≤4: {3}; overflow: {100}
	if len(got) != len(want) {
		t.Fatalf("histogram has %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("histogram %v, want %v", got, want)
		}
	}
	if h := Histogram(nil, bounds); h[0]+h[1]+h[2]+h[3] != 0 {
		t.Fatal("empty input must produce empty buckets")
	}
	// no bounds: everything lands in the single overflow bucket
	if h := Histogram([]float64{1, 2}, nil); len(h) != 1 || h[0] != 2 {
		t.Fatalf("boundless histogram %v", h)
	}
	// total count is preserved regardless of bounds
	total := 0
	for _, c := range Histogram([]float64{-5, 0, 1, 2, 3, 4, 5}, bounds) {
		total += c
	}
	if total != 7 {
		t.Fatalf("histogram lost values: total %d", total)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		sort.Float64s(raw)
		q1 := math.Mod(math.Abs(p1), 1)
		q2 := math.Mod(math.Abs(p2), 1)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Percentile(raw, q1) <= Percentile(raw, q2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpread(t *testing.T) {
	if Spread([]float64{0.3, 0.9, 0.5}) != 0.6000000000000001 && Spread([]float64{0.3, 0.9, 0.5}) != 0.6 {
		t.Fatalf("spread = %v", Spread([]float64{0.3, 0.9, 0.5}))
	}
	if Spread(nil) != 0 {
		t.Fatal("empty spread")
	}
}

func TestCrossings(t *testing.T) {
	a := []float64{0, 2, 0, 2}
	b := []float64{1, 1, 1, 1}
	if c := Crossings(a, b); c != 3 {
		t.Fatalf("crossings %d", c)
	}
	if Crossings(a, a) != 0 {
		t.Fatal("self crossings")
	}
}
