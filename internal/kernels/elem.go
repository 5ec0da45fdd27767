package kernels

// Elementwise primitives for the hot non-GEMM loops (activations,
// normalization, optimizer updates, gradient reductions). Each primitive is
// defined by its scalar reference loop — the executable spec — and may be
// executed by an AVX2 body (elem_amd64.s) over the length-multiple-of-8
// head, scalar tail in Go.
//
// The bitwise argument is the micro-kernel's, applied lane-wise: every
// primitive is a map over independent elements; the vector body performs,
// per lane, the same IEEE-754 binary32 operation sequence as the scalar
// loop (same operations, same association, no FMA contraction), so each
// output element is computed bit-for-bit identically regardless of vector
// width or where the head/tail split lands. The two comparisons-as-data
// primitives (MaxZeroF32, MaxZeroGradF32) are exact for NaN too: MAXPS with
// +0 as its second source returns +0 on NaN exactly as the scalar `v > 0`
// branch does, and CMPPS(GT_OQ) is false on NaN exactly like `>`.
// Differential tests and fuzzers pin every primitive to its scalar
// reference across ±0, ±Inf, NaN, and denormals.
//
// The SIMD bodies are enabled per micro-kernel variant (mkDesc.elemSIMD):
// active on the AVX2 variant, off for generic — so EASYSCALE_FORCE_GENERIC
// exercises the scalar loops end to end.

// AddF32 computes dst[i] += src[i].
//
//easyscale:hotpath
func AddF32(dst, src []float32) {
	src = src[:len(dst)]
	i := elemAdd(dst, src)
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// MulF32 computes dst[i] *= src[i].
//
//easyscale:hotpath
func MulF32(dst, src []float32) {
	src = src[:len(dst)]
	i := elemMul(dst, src)
	for ; i < len(dst); i++ {
		dst[i] *= src[i]
	}
}

// MulIntoF32 computes dst[i] = a[i] * b[i].
//
//easyscale:hotpath
func MulIntoF32(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := elemMulInto(dst, a, b)
	for ; i < len(dst); i++ {
		dst[i] = a[i] * b[i]
	}
}

// ScaleF32 computes dst[i] *= s.
//
//easyscale:hotpath
func ScaleF32(dst []float32, s float32) {
	i := elemScale(dst, s)
	for ; i < len(dst); i++ {
		dst[i] *= s
	}
}

// AddScaledF32 computes dst[i] = a[i] + alpha*b[i] — the weight-decay
// gradient g + λw of the SGD update.
//
//easyscale:hotpath
func AddScaledF32(dst, a, b []float32, alpha float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	i := elemAddScaled(dst, a, b, alpha)
	for ; i < len(dst); i++ {
		dst[i] = a[i] + alpha*b[i]
	}
}

// MaxZeroF32 computes dst[i] = src[i] if src[i] > 0, else +0 — the ReLU
// forward map. NaN and -0 inputs produce +0, exactly like the scalar branch.
//
//easyscale:hotpath
func MaxZeroF32(dst, src []float32) {
	src = src[:len(dst)]
	i := elemMaxZero(dst, src)
	for ; i < len(dst); i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// MaxZeroGradF32 zeroes dst[i] wherever x[i] > 0 is false — the ReLU
// backward gate on the cached forward input.
//
//easyscale:hotpath
func MaxZeroGradF32(dst, x []float32) {
	x = x[:len(dst)]
	i := elemGateGrad(dst, x)
	for ; i < len(dst); i++ {
		if !(x[i] > 0) {
			dst[i] = 0
		}
	}
}

// NormalizeF32 computes dst[i] = (src[i] - mean) * inv — the shared
// normalization map of BatchNorm and LayerNorm. dst may alias src.
//
//easyscale:hotpath
func NormalizeF32(dst, src []float32, mean, inv float32) {
	src = src[:len(dst)]
	i := elemNormalize(dst, src, mean, inv)
	for ; i < len(dst); i++ {
		dst[i] = (src[i] - mean) * inv
	}
}

// ScaleShiftF32 computes dst[i] = g*src[i] + b — the affine output map of
// BatchNorm (per-channel scalar γ, β). dst may alias src.
//
//easyscale:hotpath
func ScaleShiftF32(dst, src []float32, g, b float32) {
	src = src[:len(dst)]
	i := elemScaleShift(dst, src, g, b)
	for ; i < len(dst); i++ {
		dst[i] = g*src[i] + b
	}
}

// NormBackwardF32 computes dst[i] = c3 * (c0*g[i] - c1 - xh[i]*c2) — the
// input-gradient map shared by BatchNorm (c0 = n, c3 = γ·inv/n) and
// LayerNorm (c0 = 1, c3 = inv; 1*g is bitwise-exact for every g).
//
//easyscale:hotpath
func NormBackwardF32(dst, g, xh []float32, c0, c1, c2, c3 float32) {
	g, xh = g[:len(dst)], xh[:len(dst)]
	i := elemNormBackward(dst, g, xh, c0, c1, c2, c3)
	for ; i < len(dst); i++ {
		dst[i] = c3 * (c0*g[i] - c1 - xh[i]*c2)
	}
}

// SgdMomentumF32 applies the momentum SGD update in place:
// v[i] = mu*v[i] + g[i]; w[i] -= lr*v[i].
//
//easyscale:hotpath
func SgdMomentumF32(w, v, g []float32, lr, mu float32) {
	v, g = v[:len(w)], g[:len(w)]
	i := elemSgdMomentum(w, v, g, lr, mu)
	for ; i < len(w); i++ {
		nv := mu*v[i] + g[i]
		v[i] = nv
		w[i] -= lr * nv
	}
}

// SgdPlainF32 applies the momentum-free SGD update: w[i] -= lr*g[i].
//
//easyscale:hotpath
func SgdPlainF32(w, g []float32, lr float32) {
	g = g[:len(w)]
	i := elemSgdPlain(w, g, lr)
	for ; i < len(w); i++ {
		w[i] -= lr * g[i]
	}
}
