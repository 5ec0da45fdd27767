//go:build amd64

#include "textflag.h"

// Both tiles keep the same lane discipline. VMULPS and VADDPS are
// element-wise IEEE-754 binary32 ops with the same round-to-nearest-even and
// MXCSR state as the scalar MULSS/ADDSS the Go compiler emits — no FMA
// contraction, no horizontal adds, no reassociation — so each lane computes
// bit-for-bit what the reference kernel's scalar `part += a*b` computes.
// Operand order matches the Go expressions (a first in a*b, accumulator first
// in +=) so NaN payload propagation is identical too. VZEROUPPER before every
// return avoids AVX/SSE transition stalls in the surrounding Go code.

// MULADD: acc += a*b lane-wise, a first in the product and the accumulator
// first in the sum. The product goes through Y9.
#define MULADD(a, b, acc) VMULPS b, a, Y9; VADDPS Y9, acc, acc

// ROWST stores row register r at DI; ROWADD adds it into the row there, the
// dst value first — the order Go's `x += y` uses — with t as scratch. Both
// then step DI to the next dst row, DX bytes on.
#define ROWST(r) VMOVUPS r, (DI); ADDQ DX, DI
#define ROWADD(r, t) VMOVUPS (DI), t; VADDPS r, t, t; VMOVUPS t, (DI); ADDQ DX, DI

// func mk8x8(dst *float32, ldc int, ap, bp *float32, kb int, add bool)
//
// One 8x8 register tile of the blocked GEMM: acc[r][0..7] += ap[kk*8+r] *
// bp[kk*8 .. kk*8+7] for kk in [0,kb), then stored to (add=false) or added
// into (add=true) the eight dst rows ldc apart. kb must be >= 1 (guaranteed
// by the kc normalization in gemm.go). The eight column accumulators of each
// row live in one YMM register (Y0-Y7).
TEXT ·mk8x8(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), BX
	MOVQ kb+32(FP), CX
	SHLQ $2, DX            // ldc in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop:
	VMOVUPS (BX), Y8       // b[0..7]
	VBROADCASTSS 0(SI), Y10
	MULADD(Y10, Y8, Y0)
	VBROADCASTSS 4(SI), Y10
	MULADD(Y10, Y8, Y1)
	VBROADCASTSS 8(SI), Y10
	MULADD(Y10, Y8, Y2)
	VBROADCASTSS 12(SI), Y10
	MULADD(Y10, Y8, Y3)
	VBROADCASTSS 16(SI), Y10
	MULADD(Y10, Y8, Y4)
	VBROADCASTSS 20(SI), Y10
	MULADD(Y10, Y8, Y5)
	VBROADCASTSS 24(SI), Y10
	MULADD(Y10, Y8, Y6)
	VBROADCASTSS 28(SI), Y10
	MULADD(Y10, Y8, Y7)
	ADDQ $32, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  loop

	CMPB add+40(FP), $0
	JNE  add
	ROWST(Y0)
	ROWST(Y1)
	ROWST(Y2)
	ROWST(Y3)
	ROWST(Y4)
	ROWST(Y5)
	ROWST(Y6)
	ROWST(Y7)
	VZEROUPPER
	RET

add:
	ROWADD(Y0, Y8)
	ROWADD(Y1, Y8)
	ROWADD(Y2, Y8)
	ROWADD(Y3, Y8)
	ROWADD(Y4, Y8)
	ROWADD(Y5, Y8)
	ROWADD(Y6, Y8)
	ROWADD(Y7, Y8)
	VZEROUPPER
	RET

// ROWPTR turns the rows entry at byte offset off from CX into the pointer
// img + 4*entry in r (DX holds img).
#define ROWPTR(off, r) MOVQ off(CX), r; LEAQ (DX)(r*4), r

// func mkConv8x8(dst *float32, ldc int, ap, img *float32, rows *[8]int, koff *float32, kb int, add bool)
//
// One 8x8 tile of a convolution GEMM whose B operand is gathered from the
// image instead of packed: acc[c][0..7] += ap[kk*8 .. kk*8+7] *
// img[rows[c]+koff[kk]] for kk in [0,kb). koff holds uint32 element offsets
// stored as float32 bits. Each accumulator register holds one output column
// (its lanes are the eight output rows), so the tile is transposed before it
// is stored to (add=false) or added into (add=true) the eight dst rows ldc
// apart. kb must be >= 1.
//
// Registers: Y0-Y7 columns, Y8 the A vector, Y9 the gathered broadcast;
// AX BX R8-R13 the eight column pointers, DI koff, DX one offset, SI ap,
// CX the count.
TEXT ·mkConv8x8(SB), NOSPLIT, $0-57
	MOVQ img+24(FP), DX
	MOVQ rows+32(FP), CX
	ROWPTR(0, AX)
	ROWPTR(8, BX)
	ROWPTR(16, R8)
	ROWPTR(24, R9)
	ROWPTR(32, R10)
	ROWPTR(40, R11)
	ROWPTR(48, R12)
	ROWPTR(56, R13)
	MOVQ ap+16(FP), SI
	MOVQ koff+40(FP), DI
	MOVQ kb+48(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

cloop:
	MOVL    (DI), DX       // koff[kk], zero-extended
	VMOVUPS (SI), Y8       // a[0..7]
	VBROADCASTSS (AX)(DX*4), Y9
	MULADD(Y8, Y9, Y0)
	VBROADCASTSS (BX)(DX*4), Y9
	MULADD(Y8, Y9, Y1)
	VBROADCASTSS (R8)(DX*4), Y9
	MULADD(Y8, Y9, Y2)
	VBROADCASTSS (R9)(DX*4), Y9
	MULADD(Y8, Y9, Y3)
	VBROADCASTSS (R10)(DX*4), Y9
	MULADD(Y8, Y9, Y4)
	VBROADCASTSS (R11)(DX*4), Y9
	MULADD(Y8, Y9, Y5)
	VBROADCASTSS (R12)(DX*4), Y9
	MULADD(Y8, Y9, Y6)
	VBROADCASTSS (R13)(DX*4), Y9
	MULADD(Y8, Y9, Y7)
	ADDQ $4, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  cloop

	// 8x8 transpose: column c's lane r becomes row r's lane c. Pure moves.
	VUNPCKLPS Y1, Y0, Y8   // c0r0 c1r0 c0r1 c1r1 | c0r4 c1r4 c0r5 c1r5
	VUNPCKHPS Y1, Y0, Y9   // c0r2 c1r2 c0r3 c1r3 | c0r6 c1r6 c0r7 c1r7
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0   // c0-3 of rows 0 | 4
	VSHUFPS $0xEE, Y10, Y8, Y1   // rows 1 | 5
	VSHUFPS $0x44, Y11, Y9, Y2   // rows 2 | 6
	VSHUFPS $0xEE, Y11, Y9, Y3   // rows 3 | 7
	VSHUFPS $0x44, Y14, Y12, Y4  // c4-7 of rows 0 | 4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8   // row 0
	VPERM2F128 $0x20, Y5, Y1, Y9   // row 1
	VPERM2F128 $0x20, Y6, Y2, Y10  // row 2
	VPERM2F128 $0x20, Y7, Y3, Y11  // row 3
	VPERM2F128 $0x31, Y4, Y0, Y12  // row 4
	VPERM2F128 $0x31, Y5, Y1, Y13  // row 5
	VPERM2F128 $0x31, Y6, Y2, Y14  // row 6
	VPERM2F128 $0x31, Y7, Y3, Y15  // row 7

	MOVQ    dst+0(FP), DI
	MOVQ    ldc+8(FP), DX
	SHLQ    $2, DX
	CMPB add+56(FP), $0
	JNE  cadd
	ROWST(Y8)
	ROWST(Y9)
	ROWST(Y10)
	ROWST(Y11)
	ROWST(Y12)
	ROWST(Y13)
	ROWST(Y14)
	ROWST(Y15)
	VZEROUPPER
	RET

cadd:
	ROWADD(Y8, Y0)
	ROWADD(Y9, Y0)
	ROWADD(Y10, Y0)
	ROWADD(Y11, Y0)
	ROWADD(Y12, Y0)
	ROWADD(Y13, Y0)
	ROWADD(Y14, Y0)
	ROWADD(Y15, Y0)
	VZEROUPPER
	RET
