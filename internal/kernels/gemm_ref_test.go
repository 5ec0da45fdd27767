package kernels

import "repro/internal/pool"

// The naive GEMM loops: the executable spec of the accumulation order every
// GEMM and convolution tile is proven against, bitwise, by the differential
// tests and fuzzers. The package itself runs only the tiles.

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
