package kernels

import "math"

// convTile4x4Go is the generic conv tile (convTileFunc), its 16 accumulators
// in registers: each k step costs 8 loads for 16 multiply-adds. It is the
// portable executable spec of the tile contract: the AVX2 tiles are
// differentially fuzzed against it, and it is the tile the "generic" ISA
// selection, every non-amd64 build and every amd64 CPU without AVX2
// dispatches.
//
//easyscale:hotpath
func convTile4x4Go(dst []float32, o, ldc int, ap, img []float32, rows [maxNR]int, koff []float32, k, kc int, add bool) {
	var tot [16]float32
	w0, w1, w2, w3 := img[rows[0]:], img[rows[1]:], img[rows[2]:], img[rows[3]:]
	ap = ap[: 4*k : 4*k]
	for k0 := 0; k0 < k; k0 += kc {
		var c00, c01, c02, c03 float32
		var c10, c11, c12, c13 float32
		var c20, c21, c22, c23 float32
		var c30, c31, c32, c33 float32
		kb := min(kc, k-k0)
		blkA := ap[4*k0 : 4*(k0+kb)]
		for _, kbits := range koff[k0 : k0+kb] {
			kk := int(math.Float32bits(kbits))
			a0, a1, a2, a3 := blkA[0], blkA[1], blkA[2], blkA[3]
			b0, b1, b2, b3 := w0[kk], w1[kk], w2[kk], w3[kk]
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
			blkA = blkA[4:]
		}
		foldTile(&tot, [16]float32{c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33}, k0 == 0)
	}
	storeTile(dst[o:], ldc, tot[:], 4, 4, 4, add)
}

// dxTile4x4Go is the generic dX tile and the executable spec of the AVX2
// one: per tap record, convTile4x4Go's arithmetic and fold, product for
// product, with b read ldb apart from dout; each lane of the tap's total is
// ANDed with its mask and added onto the running total, the total first.
//
//easyscale:hotpath
func dxTile4x4Go(dst []float32, o, ldc int, ap, dout, list []float32, n, ldb, k, kc int) {
	var tot, part [16]float32
	for ; n > 0; n, list = n-1, list[6:] {
		a, b := ap[math.Float32bits(list[0]):][:4*k:4*k], dout[math.Float32bits(list[1]):]
		for k0 := 0; k0 < k; k0 += kc {
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			var c20, c21, c22, c23 float32
			var c30, c31, c32, c33 float32
			blkA := a[4*k0 : 4*min(k0+kc, k)]
			for bo := k0 * ldb; len(blkA) >= 4; bo += ldb {
				a0, a1, a2, a3 := blkA[0], blkA[1], blkA[2], blkA[3]
				bk := b[bo : bo+4 : bo+4]
				b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
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
				blkA = blkA[4:]
			}
			foldTile(&part, [16]float32{c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33}, k0 == 0)
		}
		for i, v := range part {
			tot[i] += math.Float32frombits(math.Float32bits(v) & math.Float32bits(list[2+i%4]))
		}
	}
	storeTile(dst[o:], ldc, tot[:], 4, 4, 4, false)
}

// foldTile folds one block's partial tile onto the running total: the first
// partial is the total, and every later one is added total first.
//
//easyscale:hotpath
func foldTile(tot *[16]float32, part [16]float32, first bool) {
	if first {
		*tot = part
		return
	}
	for i, v := range part {
		tot[i] += v
	}
}
