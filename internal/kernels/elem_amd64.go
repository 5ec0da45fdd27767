//go:build amd64

package kernels

// Dispatch shims for the AVX2 elementwise bodies (elem_amd64.s). Each shim
// runs the assembly over the largest multiple-of-8 head when the active
// micro-kernel variant enables elementwise SIMD, and returns how many
// elements it handled; the Go wrapper in elem.go finishes the scalar tail.
// Returning 0 (variant without elemSIMD, or fewer than 8 elements) makes the
// wrapper run the full scalar reference — the forced-ISA test lanes depend
// on that to exercise both paths.

func elemSIMDOn() bool { return activeMK().elemSIMD }

//go:noescape
func eadd8(dst, src *float32, n int)

//go:noescape
func emul8(dst, src *float32, n int)

//go:noescape
func emulinto8(dst, a, b *float32, n int)

//go:noescape
func escale8(dst *float32, s float32, n int)

//go:noescape
func eaddscaled8(dst, a, b *float32, alpha float32, n int)

//go:noescape
func emaxzero8(dst, src *float32, n int)

//go:noescape
func egategrad8(dst, x *float32, n int)

//go:noescape
func enormalize8(dst, src *float32, mean, inv float32, n int)

//go:noescape
func escaleshift8(dst, src *float32, gam, bet float32, n int)

//go:noescape
func enormback8(dst, grad, xh *float32, c0, c1, c2, c3 float32, n int)

//go:noescape
func esgdmom8(w, v, grad *float32, lr, mu float32, n int)

//go:noescape
func esgdplain8(w, grad *float32, lr float32, n int)

func elemAdd(dst, src []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	eadd8(&dst[0], &src[0], n)
	return n
}

func elemMul(dst, src []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	emul8(&dst[0], &src[0], n)
	return n
}

func elemMulInto(dst, a, b []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	emulinto8(&dst[0], &a[0], &b[0], n)
	return n
}

func elemScale(dst []float32, s float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	escale8(&dst[0], s, n)
	return n
}

func elemAddScaled(dst, a, b []float32, alpha float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	eaddscaled8(&dst[0], &a[0], &b[0], alpha, n)
	return n
}

func elemMaxZero(dst, src []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	emaxzero8(&dst[0], &src[0], n)
	return n
}

func elemGateGrad(dst, x []float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	egategrad8(&dst[0], &x[0], n)
	return n
}

func elemNormalize(dst, src []float32, mean, inv float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	enormalize8(&dst[0], &src[0], mean, inv, n)
	return n
}

func elemScaleShift(dst, src []float32, g, b float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	escaleshift8(&dst[0], &src[0], g, b, n)
	return n
}

func elemNormBackward(dst, g, xh []float32, c0, c1, c2, c3 float32) int {
	n := len(dst) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	enormback8(&dst[0], &g[0], &xh[0], c0, c1, c2, c3, n)
	return n
}

func elemSgdMomentum(w, v, g []float32, lr, mu float32) int {
	n := len(w) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	esgdmom8(&w[0], &v[0], &g[0], lr, mu, n)
	return n
}

func elemSgdPlain(w, g []float32, lr float32) int {
	n := len(w) &^ 7
	if n == 0 || !elemSIMDOn() {
		return 0
	}
	esgdplain8(&w[0], &g[0], lr, n)
	return n
}
