//go:build amd64

#include "textflag.h"

// func mk8x8(dst *float32, ldc int, ap, bp *float32, kb int, add bool)
//
// One 8x8 register tile of the blocked GEMM: acc[r][0..7] += ap[kk*8+r] *
// bp[kk*8 .. kk*8+7] for kk in [0,kb), then stored to (add=false) or added
// into (add=true) the eight dst rows ldc apart. kb must be >= 1 (guaranteed
// by the kc normalization in gemm.go).
//
// The eight column accumulators of each row live in one YMM register
// (Y0-Y7). VMULPS and VADDPS are element-wise IEEE-754 binary32 ops with the
// same round-to-nearest-even and MXCSR state as the scalar MULSS/ADDSS the
// Go compiler emits — no FMA contraction, no horizontal adds, no
// reassociation — so each lane computes bit-for-bit what the reference
// kernel's scalar `part += a*b` computes. Operand order matches the Go
// expressions (a first in a*b, accumulator first in +=) so NaN payload
// propagation is identical too. VZEROUPPER before every return avoids
// AVX/SSE transition stalls in the surrounding Go code.
TEXT ·mk8x8(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), BX
	MOVQ kb+32(FP), CX
	SHLQ $2, DX            // ldc in bytes

	VXORPS Y0, Y0, Y0      // row 0 accumulators
	VXORPS Y1, Y1, Y1      // row 1
	VXORPS Y2, Y2, Y2      // row 2
	VXORPS Y3, Y3, Y3      // row 3
	VXORPS Y4, Y4, Y4      // row 4
	VXORPS Y5, Y5, Y5      // row 5
	VXORPS Y6, Y6, Y6      // row 6
	VXORPS Y7, Y7, Y7      // row 7

loop:
	VMOVUPS (BX), Y8       // b[0..7]

	VBROADCASTSS 0(SI), Y9
	VMULPS       Y8, Y9, Y9  // a0 * b (a first, matching Go's a*b)
	VADDPS       Y9, Y0, Y0  // c0 += a0*b (accumulator first)

	VBROADCASTSS 4(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y1, Y1

	VBROADCASTSS 8(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y2, Y2

	VBROADCASTSS 12(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y3, Y3

	VBROADCASTSS 16(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4

	VBROADCASTSS 20(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y5, Y5

	VBROADCASTSS 24(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6

	VBROADCASTSS 28(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ $32, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  loop

	MOVBLZX add+40(FP), AX
	TESTB   AL, AL
	JZ      store

	// dst[r][c] += acc[r][c], dst value first — the order Go's `x += y` uses.
	VMOVUPS (DI), Y8
	VADDPS  Y0, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y1, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y2, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y3, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y5, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y6, Y8, Y8
	VMOVUPS Y8, (DI)
	ADDQ    DX, DI
	VMOVUPS (DI), Y8
	VADDPS  Y7, Y8, Y8
	VMOVUPS Y8, (DI)
	VZEROUPPER
	RET

store:
	VMOVUPS Y0, (DI)
	ADDQ    DX, DI
	VMOVUPS Y1, (DI)
	ADDQ    DX, DI
	VMOVUPS Y2, (DI)
	ADDQ    DX, DI
	VMOVUPS Y3, (DI)
	ADDQ    DX, DI
	VMOVUPS Y4, (DI)
	ADDQ    DX, DI
	VMOVUPS Y5, (DI)
	ADDQ    DX, DI
	VMOVUPS Y6, (DI)
	ADDQ    DX, DI
	VMOVUPS Y7, (DI)
	VZEROUPPER
	RET
