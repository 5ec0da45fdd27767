//go:build !amd64

package kernels

// Off amd64 the scalar reference loops in elem.go are the implementation:
// every shim reports zero elements handled.

func elemAdd(dst, src []float32) int                                    { return 0 }
func elemMul(dst, src []float32) int                                    { return 0 }
func elemMulInto(dst, a, b []float32) int                               { return 0 }
func elemScale(dst []float32, s float32) int                            { return 0 }
func elemAddScaled(dst, a, b []float32, alpha float32) int              { return 0 }
func elemMaxZero(dst, src []float32) int                                { return 0 }
func elemGateGrad(dst, x []float32) int                                 { return 0 }
func elemNormalize(dst, src []float32, mean, inv float32) int           { return 0 }
func elemScaleShift(dst, src []float32, g, b float32) int               { return 0 }
func elemNormBackward(dst, g, xh []float32, c0, c1, c2, c3 float32) int { return 0 }
func elemSgdMomentum(w, v, g []float32, lr, mu float32) int             { return 0 }
func elemSgdPlain(w, g []float32, lr float32) int                       { return 0 }
