package kernels

import "math"

// GELU, the tanh approximation 0.5x(1+tanh(√(2/π)(x+0.044715x³))) in
// float64 per float32 element. The two loops below are the spec. The AVX2
// body (gelu_amd64.s) runs four lanes at a time and performs, per lane, the
// spec's own operations: all three branches of math.tanh, blended by its
// conditions, and math.Exp's fused path (math/exp_amd64.s) instruction for
// instruction, only where math.Exp takes that path (expFused).

// geluC is √(2/π).
const geluC = 0.7978845608028654

// geluConsts holds every constant the AVX2 bodies read, in four lanes so an
// instruction takes it as its memory operand, each the Go expression the
// spec or math.Exp folds (TestGELUConstants pins them). The assembly names
// the fields through go_asm.h, so the two cannot drift apart.
type geluConsts struct {
	cubic, c, half, one, two, deriv, abs, sign [4]float64
	big, mid                                   [4]float64 // math.tanh's branch points
	log2e, ln2u, ln2l, sixteenth               [4]float64 // math/exp_amd64.s
	t8, t7, t6, t5, t4, t3, bias               [4]float64
	p0, p1, p2, q0, q1, q2                     [4]float64 // math.tanh's polynomial
}

func x4(v float64) [4]float64 { return [4]float64{v, v, v, v} }

var geluK = geluConsts{
	cubic: x4(0.044715), c: x4(geluC), half: x4(0.5), one: x4(1), two: x4(2), deriv: x4(3 * 0.044715),
	abs: x4(math.Float64frombits(1<<63 - 1)), sign: x4(math.Float64frombits(1 << 63)),
	big: x4(0.5 * 8.8029691931113054295988e+01), mid: x4(0.625), sixteenth: x4(0.0625),
	log2e: x4(1.4426950408889634073599246810018920), ln2u: x4(0.69314718055966295651160180568695068359375),
	ln2l: x4(0.28235290563031577122588448175013436025525412068e-12),
	t8:   x4(2.4801587301587301587e-5), t7: x4(1.9841269841269841270e-4), t6: x4(1.3888888888888888889e-3),
	t5: x4(8.3333333333333333333e-3), t4: x4(4.1666666666666666667e-2), t3: x4(1.6666666666666666667e-1),
	bias: x4(math.Float64frombits(1023)), // the exponent bias as an integer lane
	p0:   x4(-9.64399179425052238628e-1), p1: x4(-9.92877231001918586564e1), p2: x4(-1.61468768441708447952e3),
	q0: x4(1.12811678491632931402e2), q1: x4(2.23548839060100448583e3), q2: x4(4.84406305325125486048e3),
}

// GELUForwardF32 computes dst[i] = float32(0.5x(1+t)) with x = src[i] and
// t = tanh(√(2/π)(x+0.044715x³)), and keeps t in th[i] for the backward
// pass: kept in float64, as computed, so reading one back gives the bits
// recomputing it would.
//
//easyscale:hotpath
func GELUForwardF32(dst []float32, th []float64, src []float32) {
	src, th = src[:len(dst)], th[:len(dst)]
	i := elemGELUForward(dst, th, src)
	for ; i < len(dst); i++ {
		x := float64(src[i])
		t := math.Tanh(geluC * (x + 0.044715*x*x*x))
		th[i] = t
		dst[i] = float32(0.5 * x * (1 + t))
	}
}

// GELUBackwardF32 multiplies grad[i] by the derivative of the forward map
// at x[i], given the forward's tanh values th.
//
//easyscale:hotpath
func GELUBackwardF32(grad, x []float32, th []float64) {
	x, th = x[:len(grad)], th[:len(grad)]
	i := elemGELUBackward(grad, x, th)
	for ; i < len(grad); i++ {
		xv, t := float64(x[i]), th[i]
		d := 0.5*(1+t) + 0.5*xv*(1-t*t)*(geluC*(1+3*0.044715*xv*xv))
		grad[i] *= float32(d)
	}
}
