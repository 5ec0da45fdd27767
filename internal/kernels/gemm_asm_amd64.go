//go:build amd64

package kernels

// mkConv8x8 is the AVX2 conv tile (gemm_avx2_amd64.s), dispatched only when
// CPUID reports AVX2 usable: A is the vector operand, B is broadcast through
// the offset tables, and the total is transposed on its way out. Packed
// VMULPS/VADDPS round each lane exactly like the scalar ops Go emits (same
// IEEE-754 binary32 arithmetic, same MXCSR, no FMA), so the tile is bitwise
// identical to the scalar reference.
//
//go:noescape
func mkConv8x8(dst *float32, ldc int, ap, img *float32, rows *[maxNR]int, koff *float32, k, kc int, add bool)

// convTile8x8AVX2 adapts the AVX2 conv tile to the convTileFunc signature.
//
//easyscale:hotpath
func convTile8x8AVX2(dst []float32, o, ldc int, ap, img []float32, rows [maxNR]int, koff []float32, k, kc int, add bool) {
	mkConv8x8(&dst[o], ldc, &ap[0], &img[0], &rows, &koff[0], k, kc, add)
}

// mkDX8x8 is the AVX2 dX tile (gemm_avx2_amd64.s): mkConv8x8's lane
// arithmetic and fold per tap in row layout, with the B row read ldb apart,
// each tap's total masked and added onto a running total kept in the frame.
//
//go:noescape
func mkDX8x8(dst *float32, ldc int, ap, dout, list *float32, n, ldb, k, kc int)

// dxTile8x8AVX2 adapts the AVX2 dX tile to the dxTileFunc signature.
//
//easyscale:hotpath
func dxTile8x8AVX2(dst []float32, o, ldc int, ap, dout, list []float32, n, ldb, k, kc int) {
	mkDX8x8(&dst[o], ldc, &ap[0], &dout[0], &list[0], n, ldb, k, kc)
}
