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
//   - Atomic variants accumulate goroutine partial results in completion
//     order, which the Go scheduler makes genuinely non-deterministic from
//     run to run — the analog of CUDA atomics-based reductions.
//
// Higher layers (internal/device) choose variants and block sizes according
// to the configured determinism level.
//
// The GEMM entry points dispatch to register-tiled implementations (gemm.go)
// that share one tile with the convolutions — A packed, B gathered in place
// through offset tables — and are bitwise identical to the naive loops kept
// here as unexported reference implementations (matMulRef and friends); the
// differential tests and fuzzers assert the equivalence over shapes,
// strides, and non-finite inputs.
package kernels

import (
	"fmt"
	"sync"

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

// SumAtomic splits xs into `workers` chunks, sums each chunk concurrently,
// and combines the partials in a non-deterministic order drawn from the
// process entropy source. The per-chunk sums are deterministic; the combine
// order varies per invocation and per run — the analog of an atomics-based
// GPU reduction, where warp completion order decides the addition order.
func SumAtomic(xs []float32, workers int) float32 {
	if workers <= 1 || len(xs) < 2*workers {
		return SumSequential(xs)
	}
	chunk := (len(xs) + workers - 1) / workers
	nchunks := (len(xs) + chunk - 1) / chunk
	parts := make([]float32, nchunks)
	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		i := c * chunk
		end := i + chunk
		if end > len(xs) {
			end = len(xs)
		}
		wg.Add(1)
		go func(c int, part []float32) {
			defer wg.Done()
			parts[c] = SumSequential(part)
		}(c, xs[i:end])
	}
	wg.Wait()
	var total float32
	for _, c := range nondetPerm(nchunks) {
		total += parts[c]
	}
	return total
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
// identically in the reference and tiled paths.
func MatMul(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, m*k, k*n, "MatMul")
	if m*k*n < tiledMinWork {
		matMulRef(dst, a, b, m, k, n, kc)
		return
	}
	matMulTiled(dst, a, b, m, k, n, kc)
}

// MatMulATB computes C = Aᵀ·B for row-major A[k×m], B[k×n] into dst[m×n],
// blocked over k with block kc. Used for weight gradients (dW = Xᵀ·dY).
func MatMulATB(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, k*m, k*n, "MatMulATB")
	if m*k*n < tiledMinWork {
		matMulATBRef(dst, a, b, m, k, n, kc)
		return
	}
	matMulATBTiled(dst, a, b, m, k, n, kc)
}

// MatMulABT computes C = A·Bᵀ for row-major A[m×k], B[n×k] into dst[m×n],
// blocked over k with block kc. Used for input gradients (dX = dY·Wᵀ).
func MatMulABT(dst, a, b []float32, m, k, n, kc int) {
	checkGemm(dst, a, b, m, k, n, m*k, n*k, "MatMulABT")
	if m*k*n < tiledMinWork {
		matMulABTRef(dst, a, b, m, k, n, kc)
		return
	}
	matMulABTTiled(dst, a, b, m, k, n, kc)
}

// matMulRef is the naive triple loop the tiled kernels are proven against:
// per output row, each kc block accumulates a partial row (products in
// ascending kk order) that is then added to the row — the accumulation order
// the whole determinism story pins.
func matMulRef(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	part := pool.GetUninit(n)
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		zeroFill(row)
		for k0 := 0; k0 < k; k0 += kc {
			k1 := k0 + kc
			if k1 > k {
				k1 = k
			}
			zeroFill(part[:n])
			for kk := k0; kk < k1; kk++ {
				aik := a[i*k+kk]
				brow := b[kk*n : (kk+1)*n]
				for j, bv := range brow {
					part[j] += aik * bv
				}
			}
			for j := range row {
				row[j] += part[j]
			}
		}
	}
	pool.Put(part)
}

// matMulATBRef is the reference C = Aᵀ·B loop.
func matMulATBRef(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	part := pool.GetUninit(n)
	for i := 0; i < m; i++ {
		row := dst[i*n : (i+1)*n]
		zeroFill(row)
		for k0 := 0; k0 < k; k0 += kc {
			k1 := k0 + kc
			if k1 > k {
				k1 = k
			}
			zeroFill(part[:n])
			for kk := k0; kk < k1; kk++ {
				aik := a[kk*m+i]
				brow := b[kk*n : (kk+1)*n]
				for j, bv := range brow {
					part[j] += aik * bv
				}
			}
			for j := range row {
				row[j] += part[j]
			}
		}
	}
	pool.Put(part)
}

// matMulABTRef is the reference C = A·Bᵀ loop.
func matMulABTRef(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var total float32
			for k0 := 0; k0 < k; k0 += kc {
				k1 := k0 + kc
				if k1 > k {
					k1 = k
				}
				var part float32
				for kk := k0; kk < k1; kk++ {
					part += arow[kk] * brow[kk]
				}
				total += part
			}
			dst[i*n+j] = total
		}
	}
}

// MatMulAtomicSplitK computes C = A·B by splitting the k dimension into
// `splits` chunks, computing each chunk's partial C concurrently, and
// accumulating the partials into dst in a non-deterministic order — the
// analog of a split-K GPU GEMM that combines partials with atomics. The
// result varies in the low-order bits from run to run.
func MatMulAtomicSplitK(dst, a, b []float32, m, k, n, splits int) {
	checkGemm(dst, a, b, m, k, n, m*k, k*n, "MatMulAtomicSplitK")
	if splits <= 1 || k < splits {
		MatMul(dst, a, b, m, k, n, 0)
		return
	}
	chunk := (k + splits - 1) / splits
	nchunks := (k + chunk - 1) / chunk
	parts := make([][]float32, nchunks)
	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		k0 := c * chunk
		k1 := k0 + chunk
		if k1 > k {
			k1 = k
		}
		wg.Add(1)
		go func(c, k0, k1 int) {
			defer wg.Done()
			part := pool.Get(m * n)
			for i := 0; i < m; i++ {
				prow := part[i*n : (i+1)*n]
				for kk := k0; kk < k1; kk++ {
					aik := a[i*k+kk]
					brow := b[kk*n : (kk+1)*n]
					for j, bv := range brow {
						prow[j] += aik * bv
					}
				}
			}
			parts[c] = part
		}(c, k0, k1)
	}
	wg.Wait()
	zeroFill(dst)
	for _, c := range nondetPerm(nchunks) {
		for i, v := range parts[c] {
			dst[i] += v
		}
	}
	for _, p := range parts {
		pool.Put(p)
	}
}

// ColSumBlocked writes into dst[cols] the per-column sum of src[rows×cols],
// accumulating rows in blocks of the given size. Used for bias gradients.
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
		r1 := r0 + block
		if r1 > rows {
			r1 = rows
		}
		zeroFill(part)
		for r := r0; r < r1; r++ {
			row := src[r*cols : (r+1)*cols]
			for j, v := range row {
				part[j] += v
			}
		}
		for j := range dst {
			dst[j] += part[j]
		}
	}
	pool.Put(part)
}

// ColSumAtomic is the non-deterministic counterpart of ColSumBlocked: row
// chunks are summed concurrently and combined in a non-deterministic order.
func ColSumAtomic(dst, src []float32, rows, cols, workers int) {
	if len(dst) != cols || len(src) != rows*cols {
		panic("kernels: ColSumAtomic dimension mismatch")
	}
	if workers <= 1 || rows < 2*workers {
		ColSumBlocked(dst, src, rows, cols, 0)
		return
	}
	chunk := (rows + workers - 1) / workers
	nchunks := (rows + chunk - 1) / chunk
	parts := make([][]float32, nchunks)
	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		r0 := c * chunk
		r1 := r0 + chunk
		if r1 > rows {
			r1 = rows
		}
		wg.Add(1)
		go func(c, r0, r1 int) {
			defer wg.Done()
			part := pool.Get(cols)
			for r := r0; r < r1; r++ {
				row := src[r*cols : (r+1)*cols]
				for j, v := range row {
					part[j] += v
				}
			}
			parts[c] = part
		}(c, r0, r1)
	}
	wg.Wait()
	zeroFill(dst)
	for _, c := range nondetPerm(nchunks) {
		for j, v := range parts[c] {
			dst[j] += v
		}
	}
	for _, p := range parts {
		pool.Put(p)
	}
}
