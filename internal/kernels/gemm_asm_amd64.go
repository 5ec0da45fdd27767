//go:build amd64

package kernels

// mk8x8 is the AVX2 micro-kernel (gemm_avx2_amd64.s), dispatched only when
// CPUID reports AVX2 usable. Packed VMULPS/VADDPS round each lane exactly
// like the scalar ops Go emits (same IEEE-754 binary32 arithmetic, same
// MXCSR, no FMA), so the vector tile is bitwise identical to the scalar
// reference — asserted by the differential tests and fuzzers.
//
//go:noescape
func mk8x8(dst *float32, ldc int, ap, bp *float32, k, kc int)

// microKernel8x8AVX2 adapts the AVX2 assembly tile to the microKernelFunc
// signature: one 8×8 tile over all k steps, its kc-block partials folded in
// ascending order, stored into dst.
//
//easyscale:hotpath
func microKernel8x8AVX2(dst []float32, o, ldc int, ap, bp []float32, k, kc int) {
	mk8x8(&dst[o], ldc, &ap[0], &bp[0], k, kc)
}

// mkConv8x8 is the AVX2 conv tile (gemm_avx2_amd64.s): the same lane
// arithmetic and fold as mk8x8, with A as the vector operand and B broadcast
// from the image through the offset tables, and the total transposed on its
// way out.
//
//go:noescape
func mkConv8x8(dst *float32, ldc int, ap, img *float32, rows *[maxNR]int, koff *float32, k, kc int, add bool)

// convTile8x8AVX2 adapts the AVX2 conv tile to the convTileFunc signature.
//
//easyscale:hotpath
func convTile8x8AVX2(dst []float32, o, ldc int, ap, img []float32, rows [maxNR]int, koff []float32, k, kc int, add bool) {
	mkConv8x8(&dst[o], ldc, &ap[0], &img[0], &rows, &koff[0], k, kc, add)
}

// mkDX8x8 is the AVX2 dX tile (gemm_avx2_amd64.s): mk8x8's lane arithmetic
// and fold per tap, with B read ldb apart, each tap's total masked and added
// onto a running total kept in the frame.
//
//go:noescape
func mkDX8x8(dst *float32, ldc int, ap, dout, list *float32, n, ldb, k, kc int)

// dxTile8x8AVX2 adapts the AVX2 dX tile to the dxTileFunc signature.
//
//easyscale:hotpath
func dxTile8x8AVX2(dst []float32, o, ldc int, ap, dout, list []float32, n, ldb, k, kc int) {
	mkDX8x8(&dst[o], ldc, &ap[0], &dout[0], &list[0], n, ldb, k, kc)
}
