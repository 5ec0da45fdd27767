//go:build amd64

#include "textflag.h"

// AVX2 bodies for the elementwise primitives (elem.go). Each routine
// processes n elements, n a positive multiple of 8 (the Go shims guarantee
// both); the scalar tail stays in Go. All arithmetic is VMULPS / VADDPS /
// VSUBPS / VMAXPS / VCMPPS — element-wise IEEE-754 binary32 with the same
// rounding as the scalar ops Go emits, no FMA, no reassociation — and
// operand orders match the scalar reference expressions, so every lane is
// bitwise identical to the scalar loop. VZEROUPPER before every RET avoids
// AVX/SSE transition stalls.

// func eadd8(dst, src *float32, n int)
// dst[i] += src[i]
TEXT ·eadd8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

add_loop:
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y1
	VADDPS  Y1, Y0, Y0     // dst + src (dst first, matching Go's +=)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     add_loop
	VZEROUPPER
	RET

// func emul8(dst, src *float32, n int)
// dst[i] *= src[i]
TEXT ·emul8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

mul_loop:
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y0     // dst * src (dst first, matching Go's *=)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     mul_loop
	VZEROUPPER
	RET

// func emulinto8(dst, a, b *float32, n int)
// dst[i] = a[i] * b[i]
TEXT ·emulinto8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX

mulinto_loop:
	VMOVUPS (SI), Y0
	VMOVUPS (BX), Y1
	VMULPS  Y1, Y0, Y0     // a * b (a first)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JNZ     mulinto_loop
	VZEROUPPER
	RET

// func escale8(dst *float32, s float32, n int)
// dst[i] *= s
TEXT ·escale8(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSS s+8(FP), Y1
	MOVQ         n+16(FP), CX

scale_loop:
	VMOVUPS (DI), Y0
	VMULPS  Y1, Y0, Y0     // dst * s (dst first)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     scale_loop
	VZEROUPPER
	RET

// func eaddscaled8(dst, a, b *float32, alpha float32, n int)
// dst[i] = a[i] + alpha*b[i]
TEXT ·eaddscaled8(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), BX
	VBROADCASTSS alpha+24(FP), Y3
	MOVQ         n+32(FP), CX

addscaled_loop:
	VMOVUPS (BX), Y1
	VMULPS  Y1, Y3, Y1     // alpha * b (alpha first)
	VMOVUPS (SI), Y0
	VADDPS  Y1, Y0, Y0     // a + product (a first)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JNZ     addscaled_loop
	VZEROUPPER
	RET

// func emaxzero8(dst, src *float32, n int)
// dst[i] = src[i] > 0 ? src[i] : +0
//
// MAX(v, +0) with +0 as the SECOND source returns +0 whenever v > +0 is
// false — including v = NaN and v = -0 — which is exactly the scalar
// branch's behaviour, bit for bit.
TEXT ·emaxzero8(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y1, Y1, Y1      // +0 lanes

maxzero_loop:
	VMOVUPS (SI), Y0
	VMAXPS  Y1, Y0, Y0     // MAX(src1=v, src2=+0)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     maxzero_loop
	VZEROUPPER
	RET

// func egategrad8(dst, x *float32, n int)
// dst[i] = 0 unless x[i] > 0
//
// CMPPS with predicate GT_OQ (0x1E) is false on NaN exactly like the scalar
// `>`; ANDing the gradient with the all-ones/all-zeros mask either passes
// it bit-for-bit or produces +0, matching the scalar branch.
TEXT ·egategrad8(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y2, Y2, Y2      // +0 lanes

gategrad_loop:
	VMOVUPS (SI), Y1
	VCMPPS  $0x1E, Y2, Y1, Y1  // mask = x > 0 (GT_OQ)
	VMOVUPS (DI), Y0
	VANDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     gategrad_loop
	VZEROUPPER
	RET

// func enormalize8(dst, src *float32, mean, inv float32, n int)
// dst[i] = (src[i] - mean) * inv
TEXT ·enormalize8(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS mean+16(FP), Y2
	VBROADCASTSS inv+20(FP), Y3
	MOVQ         n+24(FP), CX

normalize_loop:
	VMOVUPS (SI), Y0
	VSUBPS  Y2, Y0, Y0     // src - mean
	VMULPS  Y3, Y0, Y0     // difference * inv (difference first)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     normalize_loop
	VZEROUPPER
	RET

// func escaleshift8(dst, src *float32, gam, bet float32, n int)
// dst[i] = g*src[i] + b
TEXT ·escaleshift8(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS gam+16(FP), Y2
	VBROADCASTSS bet+20(FP), Y3
	MOVQ         n+24(FP), CX

scaleshift_loop:
	VMOVUPS (SI), Y0
	VMULPS  Y0, Y2, Y0     // g * src (g first)
	VADDPS  Y3, Y0, Y0     // product + b (product first)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     scaleshift_loop
	VZEROUPPER
	RET

// func enormback8(dst, grad, xh *float32, c0, c1, c2, c3 float32, n int)
// dst[i] = c3 * (c0*g[i] - c1 - xh[i]*c2)
TEXT ·enormback8(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         xh+16(FP), BX
	VBROADCASTSS c0+24(FP), Y4
	VBROADCASTSS c1+28(FP), Y5
	VBROADCASTSS c2+32(FP), Y6
	VBROADCASTSS c3+36(FP), Y7
	MOVQ         n+40(FP), CX

normback_loop:
	VMOVUPS (SI), Y0
	VMULPS  Y0, Y4, Y0     // c0 * g (c0 first)
	VSUBPS  Y5, Y0, Y0     // - c1
	VMOVUPS (BX), Y1
	VMULPS  Y6, Y1, Y1     // xh * c2 (xh first)
	VSUBPS  Y1, Y0, Y0     // - xh*c2
	VMULPS  Y0, Y7, Y0     // c3 * (...) (c3 first)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JNZ     normback_loop
	VZEROUPPER
	RET

// func esgdmom8(w, v, grad *float32, lr, mu float32, n int)
// v[i] = mu*v[i] + g[i]; w[i] -= lr*v[i]
TEXT ·esgdmom8(SB), NOSPLIT, $0-40
	MOVQ         w+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), BX
	VBROADCASTSS lr+24(FP), Y4
	VBROADCASTSS mu+28(FP), Y5
	MOVQ         n+32(FP), CX

sgdmom_loop:
	VMOVUPS (SI), Y0
	VMULPS  Y0, Y5, Y0     // mu * v (mu first)
	VMOVUPS (BX), Y1
	VADDPS  Y1, Y0, Y0     // mu*v + g (product first)
	VMOVUPS Y0, (SI)       // v = new velocity
	VMULPS  Y0, Y4, Y0     // lr * v (lr first)
	VMOVUPS (DI), Y1
	VSUBPS  Y0, Y1, Y1     // w - lr*v (w first)
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JNZ     sgdmom_loop
	VZEROUPPER
	RET

// func esgdplain8(w, grad *float32, lr float32, n int)
// w[i] -= lr*g[i]
TEXT ·esgdplain8(SB), NOSPLIT, $0-32
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	VBROADCASTSS lr+16(FP), Y2
	MOVQ         n+24(FP), CX

sgdplain_loop:
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y2, Y1     // lr * g (lr first)
	VMOVUPS (DI), Y0
	VSUBPS  Y1, Y0, Y0     // w - lr*g (w first)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     sgdplain_loop
	VZEROUPPER
	RET
