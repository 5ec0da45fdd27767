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

// FOLD adds block partial r onto the running total spilled at off(SP), the
// total first — the order of the reference's `row[j] += part[j]` — leaving
// the new total in r; SPILL parks total r at off(SP) while the next block's
// partial is summed. A lane-wise add does not care whether the eight
// registers hold rows or columns, so both tiles share the pair.
#define FOLD(r, off) VMOVUPS off(SP), Y8; VADDPS r, Y8, r
#define SPILL(r, off) VMOVUPS r, off(SP)

// The eight-register forms: ZERO8, AND8, FOLD8 and SPILL8 act on Y0-Y7,
// whose frame slots lie 32 bytes apart from off; ROWST8 and ROWADD8 store or
// add eight row registers to consecutive dst rows.
#define ZERO8 VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
#define AND8(m) VANDPS m, Y0, Y0; VANDPS m, Y1, Y1; VANDPS m, Y2, Y2; VANDPS m, Y3, Y3; \
	VANDPS m, Y4, Y4; VANDPS m, Y5, Y5; VANDPS m, Y6, Y6; VANDPS m, Y7, Y7
#define FOLD8(off) FOLD(Y0, off); FOLD(Y1, off+32); FOLD(Y2, off+64); FOLD(Y3, off+96); \
	FOLD(Y4, off+128); FOLD(Y5, off+160); FOLD(Y6, off+192); FOLD(Y7, off+224)
#define SPILL8(off) SPILL(Y0, off); SPILL(Y1, off+32); SPILL(Y2, off+64); SPILL(Y3, off+96); \
	SPILL(Y4, off+128); SPILL(Y5, off+160); SPILL(Y6, off+192); SPILL(Y7, off+224)
#define ROWST8(a, b, c, d, e, f, g, h) ROWST(a); ROWST(b); ROWST(c); ROWST(d); \
	ROWST(e); ROWST(f); ROWST(g); ROWST(h)
#define ROWADD8(t, a, b, c, d, e, f, g, h) ROWADD(a, t); ROWADD(b, t); ROWADD(c, t); ROWADD(d, t); \
	ROWADD(e, t); ROWADD(f, t); ROWADD(g, t); ROWADD(h, t)

// MULROWS: row r of Y0-Y7 += A value r at SI, broadcast through Y10, times
// the B row in Y8 — one k step of a row-layout tile.
#define MULROWS VBROADCASTSS 0(SI), Y10; MULADD(Y10, Y8, Y0); VBROADCASTSS 4(SI), Y10; MULADD(Y10, Y8, Y1); \
	VBROADCASTSS 8(SI), Y10; MULADD(Y10, Y8, Y2); VBROADCASTSS 12(SI), Y10; MULADD(Y10, Y8, Y3); \
	VBROADCASTSS 16(SI), Y10; MULADD(Y10, Y8, Y4); VBROADCASTSS 20(SI), Y10; MULADD(Y10, Y8, Y5); \
	VBROADCASTSS 24(SI), Y10; MULADD(Y10, Y8, Y6); VBROADCASTSS 28(SI), Y10; MULADD(Y10, Y8, Y7)

// ROWPTR turns the rows entry at byte offset off from CX into the pointer
// img + 4*entry in r (DX holds img).
#define ROWPTR(off, r) MOVQ off(CX), r; LEAQ (DX)(r*4), r

// func mkConv8x8(dst *float32, ldc int, ap, img *float32, rows *[8]int, koff *float32, k, kc int, add bool)
//
// One 8x8 tile of a GEMM whose B operand is gathered, never packed — from a
// convolution's image or a dense matrix — over all k steps, kc at a time: per
// block, acc[c][0..7] += ap[kk*8 .. kk*8+7] * img[rows[c]+koff[kk]] for kk
// ascending from +0 accumulators; the first block's partial is the total and
// each later one is folded onto it (FOLD). koff holds uint32 element offsets
// stored as float32 bits. Each accumulator register holds one output column
// (its lanes are the eight output rows), so the total is transposed once,
// after the last block, before it is stored to (add=false) or added into
// (add=true) the eight dst rows ldc apart. k and kc must be >= 1 (guaranteed
// by the kc normalization in gemm.go).
//
// Registers: Y0-Y7 columns, Y8 the A vector, Y9 the gathered broadcast;
// AX BX R8-R13 the eight column pointers, DI koff, DX one offset, SI ap,
// CX the count. The frame holds the spilled total at 0-255, the k steps
// left at 256 and, at 264, a byte that is 0 until a total exists.
TEXT ·mkConv8x8(SB), NOSPLIT, $272-65
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
	MOVQ k+48(FP), DX
	MOVQ DX, 256(SP)
	MOVB $0, 264(SP)

cblock:
	MOVQ    kc+56(FP), CX
	MOVQ    256(SP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX         // kb = min(kc, k steps left)
	SUBQ    CX, DX
	MOVQ    DX, 256(SP)
	ZERO8

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

	CMPB 264(SP), $0
	JEQ  cfolded
	FOLD8(0)

cfolded:
	CMPQ 256(SP), $0
	JEQ  cdone
	SPILL8(0)
	MOVB $1, 264(SP)
	JMP  cblock

cdone:
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
	CMPB add+64(FP), $0
	JNE  cadd
	ROWST8(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VZEROUPPER
	RET

cadd:
	ROWADD8(Y0, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VZEROUPPER
	RET

// func mkDX8x8(dst *float32, ldc int, ap, dout, list *float32, n, ldb, k, kc int)
//
// One 8x8 tile of a convolution's input gradient (8 channels x 8 positions of
// one dX row), gathered over n 40-byte tap records {aOff, bOff, mask[8]} at
// list. Per tap, a row-layout loop over all k steps, kc at a time: per
// block, acc[r][0..7] += ap[aOff+kk*8+r] * dout[bOff+kk*ldb .. +7] for kk
// ascending from +0 accumulators, each block partial folded onto the tap's
// total (spilled at 256-511 between blocks); the tap's total is ANDed with the mask (VANDPS: off-image lanes
// become +0) and folded onto the running total at 0-255, which starts at +0.
// After the last tap the running total, still in Y0-Y7, is stored to the
// eight dst rows ldc apart. k and kc must be >= 1; n may be 0 (the tile is
// +0).
//
// Registers: Y0-Y7 rows, Y8 the B row, Y9 products, Y10 the A broadcast;
// AX ap, DX dout, R12 the record, R13 records left, R11 ldb in bytes, R9 kc,
// R8 k steps left in the tap, R10 0 until the tap has a total, SI A, BX B,
// CX the count.
TEXT ·mkDX8x8(SB), NOSPLIT, $512-72
	MOVQ ap+16(FP), AX
	MOVQ dout+24(FP), DX
	MOVQ list+32(FP), R12
	MOVQ n+40(FP), R13
	MOVQ ldb+48(FP), R11
	SHLQ $2, R11
	MOVQ kc+64(FP), R9
	ZERO8
	TESTQ R13, R13
	JZ    xdone
	SPILL8(0)

xtap:
	MOVL 0(R12), SI
	LEAQ (AX)(SI*4), SI
	MOVL 4(R12), BX
	LEAQ (DX)(BX*4), BX
	MOVQ k+56(FP), R8
	XORQ R10, R10

xblock:
	MOVQ    R9, CX
	CMPQ    R8, CX
	CMOVQLT R8, CX         // kb = min(kc, k steps left)
	SUBQ    CX, R8
	ZERO8

xloop:
	VMOVUPS (BX), Y8       // b[0..7]
	MULROWS
	ADDQ $32, SI
	ADDQ R11, BX
	DECQ CX
	JNZ  xloop

	TESTQ R10, R10
	JZ    xfolded
	FOLD8(256)

xfolded:
	TESTQ R8, R8
	JZ    xmask
	SPILL8(256)
	MOVQ $1, R10
	JMP  xblock

xmask:
	VMOVUPS 8(R12), Y8
	AND8(Y8)
	FOLD8(0)
	ADDQ $40, R12
	DECQ R13
	JZ   xdone
	SPILL8(0)
	JMP  xtap

xdone:
	MOVQ dst+0(FP), DI
	MOVQ ldc+8(FP), DX
	SHLQ $2, DX
	ROWST8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VZEROUPPER
	RET
