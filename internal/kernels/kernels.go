// Package kernels implements the compute kernels of the EasyScale training
// stack with the floating-point accumulation order as an explicit parameter.
//
// The paper (§3.3) traces inconsistent model accuracy to three root causes in
// the software stack: non-deterministic kernels (atomics), profiling-based
// kernel selection, and hardware-specific kernel implementations. All three
// reduce to the same mechanism — the order in which float32 partial products
// are added — so this package makes that order first-class:
//
//   - Sequential / blocked variants accumulate in a fixed order; the block
//     size plays the role of a GPU architecture's tile / SM count, so two
//     "GPU types" that pick different block sizes produce bitwise-different
//     (both individually deterministic) results, which is exactly the D2
//     heterogeneity problem.
//   - Atomic variants form fixed-order chunk partials with the deterministic
//     kernels and add them in an order drawn from a wall-clock-seeded
//     entropy source (entropy.go), so the bits vary from call to call and
//     from run to run — the analog of CUDA atomics-based reductions.
//
// Higher layers (internal/device) choose variants and block sizes according
// to the configured determinism level.
//
// The GEMM entry points run register-tiled implementations (gemm.go) that
// share one tile with the convolutions — A packed, B gathered in place
// through offset tables — at every size. The naive loops they are bitwise
// identical to live in the tests as the spec (gemm_ref_test.go); the
// differential tests and fuzzers assert the equivalence over shapes,
// strides, and non-finite inputs.
package kernels

import (
	"fmt"

	"repro/internal/pool"
)

// zeroFill clears s. The loop shape is recognized by the compiler and lowered
// to a memclr; every kernel that zero-initializes pooled scratch goes through
// this single helper.
func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// SumSequential adds xs left to right.
func SumSequential(xs []float32) float32 {
	var s float32
	for _, v := range xs {
		s += v
	}
	return s
}

// SumBlocked adds xs in contiguous blocks of the given size: each block is
// summed left to right from +0, then block partials are added left to right
// onto +0. Distinct block sizes generally yield bitwise-different results on
// the same input — the mechanism behind hardware-specific kernels. block <= 0
// or >= len(xs) degenerates to SumSequential.
//
// Eight consecutive blocks are summed side by side in eight independent
// accumulators, each still left to right from +0, and their partials are
// then added to the total in ascending order: the serial loop's bits with
// eight dependency chains instead of one. Only a tail of fewer than eight
// blocks runs one block at a time.
//
//easyscale:hotpath
func SumBlocked(xs []float32, block int) float32 {
	if block <= 0 || block >= len(xs) {
		return SumSequential(xs)
	}
	var total float32
	i := 0
	for ; i+8*block <= len(xs); i += 8 * block {
		b0 := xs[i : i+block]
		b1, b2, b3 := xs[i+block:][:len(b0)], xs[i+2*block:][:len(b0)], xs[i+3*block:][:len(b0)]
		b4, b5, b6 := xs[i+4*block:][:len(b0)], xs[i+5*block:][:len(b0)], xs[i+6*block:][:len(b0)]
		b7 := xs[i+7*block:][:len(b0)]
		var p0, p1, p2, p3, p4, p5, p6, p7 float32
		for j, v := range b0 {
			p0 += v
			p1 += b1[j]
			p2 += b2[j]
			p3 += b3[j]
			p4 += b4[j]
			p5 += b5[j]
			p6 += b6[j]
			p7 += b7[j]
		}
		total += p0
		total += p1
		total += p2
		total += p3
		total += p4
		total += p5
		total += p6
		total += p7
	}
	for ; i < len(xs); i += block {
		var part float32
		for _, v := range xs[i:min(i+block, len(xs))] {
			part += v
		}
		total += part
	}
	return total
}

// chunking splits n items into contiguous chunks of ceil(n/parts) items, the
// work split of the atomic kernels: the chunk size and the chunk count.
func chunking(n, parts int) (size, count int) {
	size = (n + parts - 1) / parts
	return size, (n + size - 1) / size
}

// addNondet overwrites dst with the sum onto +0 of the count partials laid
// end to end in parts, each len(dst) wide, added in an order drawn from the
// process entropy source — the combine of every atomic kernel. The partials
// are deterministic; the order varies per invocation and per run, as warp
// completion order decides the addition order of an atomics-based GPU
// reduction.
func addNondet(dst, parts []float32, count int) {
	zeroFill(dst)
	for _, c := range nondetPerm(count) {
		for i, v := range parts[c*len(dst):][:len(dst)] {
			dst[i] += v
		}
	}
}

// SumAtomic splits xs into `workers` chunks, sums each left to right, and
// combines the chunk sums through addNondet.
func SumAtomic(xs []float32, workers int) float32 {
	if workers <= 1 || len(xs) < 2*workers {
		return SumSequential(xs)
	}
	size, count := chunking(len(xs), workers)
	parts := pool.GetUninit(count)
	for c := range parts {
		parts[c] = SumSequential(xs[c*size : min((c+1)*size, len(xs))])
	}
	var total [1]float32
	addNondet(total[:], parts, count)
	pool.Put(parts)
	return total[0]
}

// MeanVar returns the blocked-order mean and (biased) variance of xs, the
// statistics BatchNorm tracks. The variance sums float32((v−mean)²) in
// SumBlocked's blocks and order, so the block size governs its accumulation
// order too; no deviation buffer is formed. The conversions round each
// product before its addition, here and in SumDotBlocked, so none can fuse
// into a multiply-add.
//
//easyscale:hotpath
func MeanVar(xs []float32, block int) (mean, variance float32) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = SumBlocked(xs, block) / float32(len(xs))
	if block <= 0 || block >= len(xs) {
		block = len(xs) // one block: +0 plus the serial sum is the serial sum
	}
	for i := 0; i < len(xs); i += block {
		var part float32
		for _, v := range xs[i:min(i+block, len(xs))] {
			d := v - mean
			part += float32(d * d)
		}
		variance += part
	}
	return mean, variance / float32(len(xs))
}

// SumDotBlocked returns SumBlocked(a, block) and SumBlocked of the products
// float32(a[i]·b[i]) in one pass over a and b, in SumBlocked's blocks and
// order: the two sums of the norm layers' backward.
//
//easyscale:hotpath
func SumDotBlocked(a, b []float32, block int) (sum, dot float32) {
	if block <= 0 || block >= len(a) {
		block = max(len(a), 1)
	}
	for i := 0; i < len(a); i += block {
		ai := a[i:min(i+block, len(a))]
		bi := b[i:][:len(ai)]
		var s, p float32
		for j, v := range ai {
			s += v
			p += float32(v * bi[j])
		}
		sum, dot = sum+s, dot+p
	}
	return sum, dot
}

// MeanVarAtomic is the non-deterministic counterpart of MeanVar.
func MeanVarAtomic(xs []float32, workers int) (mean, variance float32) {
	if len(xs) == 0 {
		return 0, 0
	}
	mean = SumAtomic(xs, workers) / float32(len(xs))
	devs := pool.GetUninit(len(xs))
	for i, v := range xs {
		d := v - mean
		devs[i] = d * d
	}
	variance = SumAtomic(devs, workers) / float32(len(xs))
	pool.Put(devs)
	return mean, variance
}

func checkGemm(dst, a, b []float32, m, k, n int, aLen, bLen int, op string) {
	if len(dst) != m*n || len(a) != aLen || len(b) != bLen {
		panic(fmt.Sprintf("kernels: %s dimension mismatch m=%d k=%d n=%d |dst|=%d |a|=%d |b|=%d",
			op, m, k, n, len(dst), len(a), len(b)))
	}
}

// MatMul computes C = A·B for row-major A[m×k], B[k×n] into dst[m×n],
// accumulating over k in blocks of kc (kc <= 0 means a single block, i.e.
// fully sequential over k). dst is overwritten.
//
// Inputs need not be finite: products are formed for every k index (there is
// no skip of zero operands), so NaN and ±Inf propagate exactly per IEEE 754,
// identically in the tile and in the reference loops the tests hold it to.
func MatMul(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, m*k, k*n, "MatMul")
	gemmDense(dst, a, b, m, k, n, kc, k, 1, 1, n)
}

// MatMulATB computes C = Aᵀ·B for row-major A[k×m], B[k×n] into dst[m×n],
// blocked over k with block kc. Used for weight gradients (dW = Xᵀ·dY).
func MatMulATB(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, k*m, k*n, "MatMulATB")
	gemmDense(dst, a, b, m, k, n, kc, 1, m, 1, n)
}

// MatMulABT computes C = A·Bᵀ for row-major A[m×k], B[n×k] into dst[m×n],
// blocked over k with block kc. Used for input gradients (dX = dY·Wᵀ).
func MatMulABT(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, m*k, n*k, "MatMulABT")
	gemmDense(dst, a, b, m, k, n, kc, k, 1, k, 1)
}

// MatMulAtomicSplitK computes C = A·B by splitting the k dimension into
// `splits` chunks, computing each chunk's partial C with the tile in one kc
// block, and combining the partials through addNondet — the analog of a
// split-K GPU GEMM that combines partials with atomics. The result varies in
// the low-order bits from run to run.
func MatMulAtomicSplitK(dst, a, b []float32, m, k, n, splits int) {
	checkGemm(dst, a, b, m, k, n, m*k, k*n, "MatMulAtomicSplitK")
	if splits <= 1 || k < splits {
		MatMul(dst, a, b, m, k, n, 0)
		return
	}
	size, count := chunking(k, splits)
	parts := pool.GetUninit(count * m * n)
	for c := 0; c < count && m > 0; c++ { // an empty A has no columns to slice
		k0, kn := c*size, min(size, k-c*size)
		gemmDense(parts[c*m*n:][:m*n], a[k0:], b[k0*n:], m, kn, n, kn, k, 1, 1, n)
	}
	addNondet(dst, parts, count)
	pool.Put(parts)
}

// ColSumBlocked writes into dst[cols] the per-column sum of src[rows×cols],
// accumulating rows in blocks of the given size. Used for bias gradients.
// Each row is added into the block's partial sums, and each partial into
// dst, through AddF32: per column that is the serial loop's order exactly.
func ColSumBlocked(dst, src []float32, rows, cols, block int) {
	if len(dst) != cols || len(src) != rows*cols {
		panic("kernels: ColSumBlocked dimension mismatch")
	}
	if block <= 0 || block > rows {
		block = rows
	}
	zeroFill(dst)
	part := pool.GetUninit(cols)
	for r0 := 0; r0 < rows; r0 += block {
		zeroFill(part)
		for r := r0; r < min(r0+block, rows); r++ {
			AddF32(part, src[r*cols:(r+1)*cols])
		}
		AddF32(dst, part)
	}
	pool.Put(part)
}

// ColSumAtomic is the non-deterministic counterpart of ColSumBlocked: the
// column sums of each row chunk, in one block, are combined through
// addNondet.
func ColSumAtomic(dst, src []float32, rows, cols, workers int) {
	if len(dst) != cols || len(src) != rows*cols {
		panic("kernels: ColSumAtomic dimension mismatch")
	}
	if workers <= 1 || rows < 2*workers {
		ColSumBlocked(dst, src, rows, cols, 0)
		return
	}
	size, count := chunking(rows, workers)
	parts := pool.GetUninit(count * cols)
	for c := 0; c < count; c++ {
		r0, r1 := c*size, min((c+1)*size, rows)
		ColSumBlocked(parts[c*cols:][:cols], src[r0*cols:r1*cols], r1-r0, cols, 0)
	}
	addNondet(dst, parts, count)
	pool.Put(parts)
}
