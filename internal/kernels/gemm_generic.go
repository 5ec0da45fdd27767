package kernels

import "math"

// microKernel4x4Go computes one 4×4 register tile over kb k-steps from
// packed panels: for each kk ascending, acc[r][c] += ap[kk·mr+r] · bp[kk·nr+c].
// The 16 accumulators live in registers, so each k-step costs 8 loads for 16
// multiply-adds — the register reuse the naive loops lack. Per element the
// operation sequence is exactly the reference kernel's, so the tile is
// bitwise identical to the naive computation of the same kc block. The block
// partial is stored (add=false, first block) or added (later blocks) exactly
// like the reference's `row[j] += part[j]`.
//
// This is the portable executable spec of the micro-kernel contract: the
// AVX2 assembly variant is differentially fuzzed against it, and it is the
// variant the "generic" ISA selection, every non-amd64 build and every amd64
// CPU without AVX2 dispatches.
//
//easyscale:hotpath
func microKernel4x4Go(dst []float32, o, ldc int, ap, bp []float32, kb int, add bool) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	ap = ap[: 4*kb : 4*kb]
	bp = bp[: 4*kb : 4*kb]
	for len(ap) >= 4 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		ap = ap[4:]
		bp = bp[4:]
	}
	acc := [16]float32{c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33}
	storeTile(dst[o:], ldc, acc[:], 4, 4, 4, add)
}

// convTile4x4Go is the generic conv tile and the executable spec of the AVX2
// one: microKernel4x4Go's arithmetic, product for product, with b read from
// the image at rows[c]+koff[kk] instead of from a packed panel.
//
//easyscale:hotpath
func convTile4x4Go(dst []float32, o, ldc int, ap, img []float32, rows [maxNR]int, koff []float32, kb int, add bool) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	var c20, c21, c22, c23 float32
	var c30, c31, c32, c33 float32
	w0, w1, w2, w3 := img[rows[0]:], img[rows[1]:], img[rows[2]:], img[rows[3]:]
	ap = ap[: 4*kb : 4*kb]
	for _, kbits := range koff[:kb] {
		k := int(math.Float32bits(kbits))
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := w0[k], w1[k], w2[k], w3[k]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		ap = ap[4:]
	}
	acc := [16]float32{c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33}
	storeTile(dst[o:], ldc, acc[:], 4, 4, 4, add)
}
