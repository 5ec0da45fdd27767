//go:build amd64

package kernels

import "math"

//go:noescape
func geluFwd4(dst *float32, th *float64, src *float32, n int)

//go:noescape
func geluBwd4(grad, x *float32, th *float64, n int)

// expFused reports whether math.Exp takes the fused path the GELU body
// replays: cpuHasFMA, and (GODEBUG=cpu.fma=off hides FMA from math, not from
// CPUID) the spec's tanh at 0.76401526, where fused and unfused Exp differ.
// The spec side reads geluK.c (= geluC), so geluK, which the body reads
// unseen by the compiler, is initialised first.
var expFused = cpuHasFMA && func() bool {
	src, y, th := [4]float32{0.76401526}, [4]float32{}, [4]float64{}
	geluFwd4(&y[0], &th[0], &src[0], 4)
	x := float64(src[0])
	return th[0] == math.Tanh(geluK.c[0]*(x+0.044715*x*x*x))
}()

func elemGELUForward(dst []float32, th []float64, src []float32) int {
	n := len(dst) &^ 3
	if n > 0 && expFused && elemSIMDOn() {
		geluFwd4(&dst[0], &th[0], &src[0], n)
		return n
	}
	return 0
}

func elemGELUBackward(grad, x []float32, th []float64) int {
	n := len(grad) &^ 3
	if n > 0 && expFused && elemSIMDOn() {
		geluBwd4(&grad[0], &x[0], &th[0], n)
		return n
	}
	return 0
}
