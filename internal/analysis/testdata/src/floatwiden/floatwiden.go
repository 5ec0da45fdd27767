// Package floatwiden is the detlint floatwiden fixture: float64 accumulation
// over widened float32 values (and math.FMA) produce results no
// float32-accumulating reference reproduces bitwise.
package floatwiden

import "math"

func fused(a, b, c float64) float64 {
	return math.FMA(a, b, c) // want `math\.FMA`
}

func widenedAccum(xs []float32) float32 {
	var sum float64
	for _, v := range xs {
		sum += float64(v) // want "accumulated in float64 sum"
	}
	return float32(sum)
}

func widenedVarAccum(xs []float32) float32 {
	var sum float64
	for _, v := range xs {
		xv := float64(v)
		sum = sum + xv // want "accumulated in float64 sum"
	}
	return float32(sum)
}

func widenedDot(a, b []float32) float32 {
	var acc float64
	for i := range a {
		acc += float64(a[i]) * float64(b[i]) // want "accumulated in float64 acc"
	}
	return float32(acc)
}

// --- exempt ---------------------------------------------------------------

func pointwise(xs []float32) {
	for i, v := range xs {
		// widen-compute-narrow per element: same software rounding path on
		// every host, no cross-element accumulation
		xs[i] = float32(math.Exp(float64(v)))
	}
}

func nativeFloat64(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

func float32Accum(xs []float32) float32 {
	var sum float32
	for _, v := range xs {
		sum += v
	}
	return sum
}

// widenPointwise binds w to a widened value; unrelatedAccum's w is another
// variable, a float64 from the start, so its accumulation is native.
func widenPointwise(xs []float32) {
	for i, v := range xs {
		w := float64(v)
		xs[i] = float32(math.Sqrt(w))
	}
}

func unrelatedAccum(ws []float64) float64 {
	var acc float64
	for _, w := range ws {
		acc += w
	}
	return acc
}
