//go:build amd64

#include "textflag.h"
#include "go_asm.h"

// AVX2 bodies of GELUForwardF32 and GELUBackwardF32 (gelu.go), n a positive
// multiple of 4; every constant is the geluK field go_asm.h names.
#define K(f) ·geluK+f(SB)

// func geluFwd4(dst *float32, th *float64, src *float32, n int)
TEXT ·geluFwd4(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         th+8(FP), DX
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX
	VMOVUPD      K(geluConsts_one), Y14
	VMOVUPD      K(geluConsts_two), Y15

fwd_loop:
	VCVTPS2PD    (SI), Y0                        // x
	VMULPD       K(geluConsts_cubic), Y0, Y1     // a = geluC*(x + ((0.044715*x)*x)*x)
	VMULPD       Y0, Y1, Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y1, Y0, Y1
	VMULPD       K(geluConsts_c), Y1, Y1
	VANDPD       K(geluConsts_abs), Y1, Y2       // z = |a|
	VADDPD       Y2, Y2, Y3                      // s = Exp(2z), math's avxfma block
	VMULPD       K(geluConsts_log2e), Y3, Y4
	VCVTPD2DQY   Y4, X5                          // e, rounded to nearest like CVTSD2SL
	VCVTDQ2PD    X5, Y4
	VFNMADD231PD K(geluConsts_ln2u), Y4, Y3      // r = 2z - e*LN2U - e*LN2L, fused
	VFNMADD231PD K(geluConsts_ln2l), Y4, Y3
	VMULPD       K(geluConsts_sixteenth), Y3, Y3
	VMOVUPD      K(geluConsts_t8), Y4            // seven fused Taylor steps
	VFMADD213PD  K(geluConsts_t7), Y3, Y4
	VFMADD213PD  K(geluConsts_t6), Y3, Y4
	VFMADD213PD  K(geluConsts_t5), Y3, Y4
	VFMADD213PD  K(geluConsts_t4), Y3, Y4
	VFMADD213PD  K(geluConsts_t3), Y3, Y4
	VFMADD213PD  K(geluConsts_half), Y3, Y4
	VFMADD213PD  Y14, Y3, Y4
	VMULPD       Y4, Y3, Y3
	VADDPD       Y15, Y3, Y4                     // three r = r*(r+2), then r*(r+2)+1 fused
	VMULPD       Y4, Y3, Y3
	VADDPD       Y15, Y3, Y4
	VMULPD       Y4, Y3, Y3
	VADDPD       Y15, Y3, Y4
	VMULPD       Y4, Y3, Y3
	VADDPD       Y15, Y3, Y4
	VFMADD213PD  Y14, Y4, Y3
	VPMOVZXDQ    X5, Y4                          // times 2^e = (e+1023) << 52
	VPADDQ       K(geluConsts_bias), Y4, Y4
	VPSLLQ       $52, Y4, Y4
	VMULPD       Y4, Y3, Y3
	VADDPD       Y14, Y3, Y3                     // |a| >= 0.625: ±(1 - 2/(s+1))
	VDIVPD       Y3, Y15, Y3
	VSUBPD       Y3, Y14, Y3
	VANDPD       K(geluConsts_sign), Y1, Y4
	VXORPD       Y4, Y3, Y3
	VXORPD       Y4, Y14, Y5                     // |a| > 0.5*MAXLOG: ±1
	VMULPD       Y1, Y1, Y6                      // else a + ((a*s)*P(s))/Q(s), s = a*a
	VMULPD       K(geluConsts_p0), Y6, Y7
	VADDPD       K(geluConsts_p1), Y7, Y7
	VMULPD       Y6, Y7, Y7
	VADDPD       K(geluConsts_p2), Y7, Y7
	VADDPD       K(geluConsts_q0), Y6, Y8
	VMULPD       Y6, Y8, Y8
	VADDPD       K(geluConsts_q1), Y8, Y8
	VMULPD       Y6, Y8, Y8
	VADDPD       K(geluConsts_q2), Y8, Y8
	VMULPD       Y6, Y1, Y6
	VMULPD       Y7, Y6, Y6
	VDIVPD       Y8, Y6, Y6
	VADDPD       Y6, Y1, Y6
	VXORPD       Y7, Y7, Y7                      // blend; NaN fails all three, as in Go
	VCMPPD       $0x00, Y7, Y1, Y8               // a == 0 keeps a, -0 too (EQ_OQ)
	VBLENDVPD    Y8, Y1, Y6, Y6
	VCMPPD       $0x1D, K(geluConsts_mid), Y2, Y8 // |a| >= 0.625 (GE_OQ)
	VBLENDVPD    Y8, Y3, Y6, Y6
	VCMPPD       $0x1E, K(geluConsts_big), Y2, Y8 // |a| > 0.5*MAXLOG (GT_OQ)
	VBLENDVPD    Y8, Y5, Y6, Y6
	VMOVUPD      Y6, (DX)
	VMULPD       K(geluConsts_half), Y0, Y0      // y = float32((0.5*x)*(1+t))
	VADDPD       Y6, Y14, Y6
	VMULPD       Y6, Y0, Y0
	VCVTPD2PSY   Y0, X0
	VMOVUPS      X0, (DI)
	ADDQ         $16, SI
	ADDQ         $16, DI
	ADDQ         $32, DX
	SUBQ         $4, CX
	JNZ          fwd_loop
	VZEROUPPER
	RET

// func geluBwd4(grad, x *float32, th *float64, n int)
// grad *= float32(0.5*(1+t) + ((0.5*x)*(1-t*t))*(geluC*(1+(c3*x)*x)))
TEXT ·geluBwd4(SB), NOSPLIT, $0-32
	MOVQ         grad+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         th+16(FP), DX
	MOVQ         n+24(FP), CX
	VMOVUPD      K(geluConsts_one), Y14

bwd_loop:
	VCVTPS2PD    (SI), Y0
	VMOVUPD      (DX), Y1
	VADDPD       Y1, Y14, Y2
	VMULPD       K(geluConsts_half), Y2, Y2
	VMULPD       K(geluConsts_half), Y0, Y3
	VMULPD       Y1, Y1, Y4
	VSUBPD       Y4, Y14, Y4
	VMULPD       Y4, Y3, Y3
	VMULPD       K(geluConsts_deriv), Y0, Y4
	VMULPD       Y0, Y4, Y4
	VADDPD       Y4, Y14, Y4
	VMULPD       K(geluConsts_c), Y4, Y4
	VMULPD       Y4, Y3, Y3
	VADDPD       Y3, Y2, Y2
	VCVTPD2PSY   Y2, X2
	VMOVUPS      (DI), X3
	VMULPS       X2, X3, X3                      // grad first, as Go's *=
	VMOVUPS      X3, (DI)
	ADDQ         $16, SI
	ADDQ         $16, DI
	ADDQ         $32, DX
	SUBQ         $4, CX
	JNZ          bwd_loop
	VZEROUPPER
	RET
