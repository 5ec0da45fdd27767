package kernels

import (
	"math"

	"repro/internal/pool"
)

// Cache-blocked, register-tiled GEMM under the bitwise contract.
//
// The determinism argument of §3.3 pins the *per-output-element accumulation
// order*: every C[i,j] must add its k-partials in the fixed kc-blocked order
// (products in ascending kk within a block, block partials in ascending block
// order). It says nothing about the loop order over *independent* outputs, or
// about where operands live — which leaves the kernels free to be
// reorganized for locality. The implementation here is a BLIS-style blocked
// GEMM:
//
//   - A is packed once per call into mr-wide row strips, kk-major within each
//     kc block, so the micro-kernel reads it with unit stride regardless of
//     the operand's original layout (normal or transposed).
//   - B is packed per (kc block × nc column block) into nr-wide column
//     strips, again kk-major. The pack step is a pure data movement, so it
//     can source a plain matrix or a transposed one without touching
//     numerics. The forward and dW conv GEMMs skip it: their B is the
//     im2col matrix, which gemmConv's tile reads straight from the image
//     through two offset tables (one per B dimension), so no panel is ever
//     written. dX packs dOut once per image (convDX).
//   - Each mr×nr output tile is computed by a register-tiled micro-kernel
//     holding mr·nr accumulators: for each kk ascending, it performs mr·nr
//     multiply-adds off mr+nr loads. Per element this is exactly the
//     reference loop's `part += a·b` sequence, so the result is bitwise
//     identical to the naive kernels for every input, block size, and tile
//     boundary — asserted by the differential tests and fuzzers.
//
// The register tile mr×nr is a property of the dispatched micro-kernel
// (microkernel.go): 4×4 for the generic variant, 8×8 for AVX2.
// Like the cache blocks, the tile shape only changes which *independent*
// outputs share registers — it is invisible to numerics; only kc (the
// accumulation block, chosen by the device model) shows up in the bits.

var (
	// gemmMCStrips bounds the rows of packed A the micro-kernel loop walks
	// per B strip (the L2-resident A block), in units of mr-row strips.
	gemmMCStrips = 32
	// gemmNC bounds the columns packed per B panel (the L1/L2-resident B
	// block). Must stay a multiple of every variant's nr.
	gemmNC = 256
	// tiledMinWork is the m·k·n product below which the dispatchers use the
	// reference loops: at trivial sizes the pack+tile overhead outweighs the
	// register reuse. Dispatch by size is invisible to numerics because the
	// two paths are bitwise identical.
	tiledMinWork = 4096
)

// packedA is operand A packed for the tiled GEMM: ceil(m/mr) row strips of
// width mk.mr (zero-padded past m), kk-major within each kc block, blocks in
// ascending k order. The flat offset of (block k0, strip s) is
// k0·mtiles·mr + s·kb·mr with kb the block's length, so lookups are closed
// form. The buffer is drawn from the arena; callers must release(). The
// micro-kernel descriptor is captured at pack time so panel layout and tile
// function always agree, even across a concurrent SetISA.
type packedA struct {
	buf    []float32
	m, k   int
	kc     int
	mtiles int
	mk     *mkDesc
}

// newPackedA shapes an m×k operand A, kc-blocked, for the active
// micro-kernel. kc must already be normalized to [1,k] (or k==0). The caller
// draws buf (size floats) and fills it with pack.
func newPackedA(m, k, kc int) packedA {
	mk := activeMK()
	return packedA{m: m, k: k, kc: kc, mtiles: (m + mk.mr - 1) / mk.mr, mk: mk}
}

// size is the packed length of A in floats.
func (pa *packedA) size() int { return pa.mtiles * pa.mk.mr * pa.k }

// packA packs A(i,kk) = a[i·rs + kk·cs] into arena memory — rs/cs express
// normal (rs=lda,cs=1) and transposed (rs=1,cs=lda) operands with one packer.
//
//easyscale:hotpath
func packA(a []float32, m, k, kc, rs, cs int) packedA {
	pa := newPackedA(m, k, kc)
	pa.buf = pool.GetUninit(pa.size())
	pa.pack(pa.buf, a, rs, cs)
	return pa
}

// pack writes A(i,kk) = a[i·rs + kk·cs] into buf in pa's layout.
//
//easyscale:hotpath
func (pa *packedA) pack(buf, a []float32, rs, cs int) {
	mr := pa.mk.mr
	off := 0
	for k0 := 0; k0 < pa.k; k0 += pa.kc {
		kb := min(pa.kc, pa.k-k0)
		for s := 0; s < pa.mtiles; s++ {
			i0 := s * mr
			rows := min(mr, pa.m-i0)
			for p := 0; p < kb; p++ {
				base := (k0 + p) * cs
				for r := 0; r < rows; r++ {
					buf[off] = a[(i0+r)*rs+base]
					off++
				}
				for r := rows; r < mr; r++ {
					buf[off] = 0
					off++
				}
			}
		}
	}
}

func (pa *packedA) release() { pool.Put(pa.buf) }

// bPanelSrc describes the matrix B panels are packed from: B(kk,j) =
// data[kk·ld + j] (row-major: MatMul) or data[j·ld + kk]
// (colMajor: MatMulABT).
type bPanelSrc struct {
	data     []float32
	ld       int
	colMajor bool
}

// pack fills bp with the (k0..k0+kb) × (j0..j0+jw) block of B in nr-wide
// column strips, kk-major within a strip, zero-padded past jw. Pure data
// movement: the layout change is invisible to numerics.
func (s *bPanelSrc) pack(bp []float32, k0, kb, j0, jw, nr int) {
	if s.colMajor {
		packBColMajor(bp, s.data, s.ld, k0, kb, j0, jw, nr)
	} else {
		packBRowMajor(bp, s.data, s.ld, k0, kb, j0, jw, nr)
	}
}

//easyscale:hotpath
func packBRowMajor(bp, b []float32, n, k0, kb, j0, jw, nr int) {
	off := 0
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		for p := 0; p < kb; p++ {
			row := b[(k0+p)*n+j0+t0:]
			if tw == 8 {
				*(*[8]float32)(bp[off:]) = *(*[8]float32)(row)
				off += 8
			} else {
				for c := 0; c < tw; c++ {
					bp[off] = row[c]
					off++
				}
			}
			for c := tw; c < nr; c++ {
				bp[off] = 0
				off++
			}
		}
	}
}

//easyscale:hotpath
func packBColMajor(bp, b []float32, ldb, k0, kb, j0, jw, nr int) {
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		tOff := t0 * kb
		for c := 0; c < tw; c++ {
			col := b[(j0+t0+c)*ldb+k0:]
			for p := 0; p < kb; p++ {
				bp[tOff+p*nr+c] = col[p]
			}
		}
		for c := tw; c < nr; c++ {
			for p := 0; p < kb; p++ {
				bp[tOff+p*nr+c] = 0
			}
		}
	}
}

// gemmTiled computes C = A·B (m×n, row-major with stride n) from packed A and
// a B-panel source. Per output element the kc blocks are visited in ascending
// order and accumulated exactly as the reference loops do; dst is fully
// overwritten. B panels are packed and consumed one at a time — column blocks
// ascending, kc blocks ascending within each — into a single pooled buffer.
//
//easyscale:hotpath
func gemmTiled(dst []float32, n int, pa *packedA, bsrc *bPanelSrc) {
	m, k, kc := pa.m, pa.k, pa.kc
	mk := pa.mk
	mr, nr := mk.mr, mk.nr
	if m <= 0 || n <= 0 {
		return
	}
	if k == 0 {
		// no k-partials: the reference zeroes the output
		zeroFill(dst[:m*n])
		return
	}
	bp := pool.GetUninit(((min(gemmNC, n) + nr - 1) / nr) * nr * min(kc, k))
	// Edge-tile scratch comes from the arena, not the stack: it is passed to
	// the micro-kernel through a func value, and escape analysis would heap-
	// allocate a stack array on every call through that indirection.
	tile := pool.GetUninit(maxMR * maxNR)
	for jc := 0; jc < n; jc += gemmNC {
		jcw := min(gemmNC, n-jc)
		for k0 := 0; k0 < k; k0 += kc {
			kb := min(kc, k-k0)
			bsrc.pack(bp, k0, kb, jc, jcw, nr)

			add := k0 > 0
			aBlock := k0 * pa.mtiles * mr
			for sc := 0; sc < pa.mtiles; sc += gemmMCStrips {
				scEnd := min(pa.mtiles, sc+gemmMCStrips)
				for t := 0; t*nr < jcw; t++ {
					bpOff := t * kb * nr
					jt := jc + t*nr
					cols := min(nr, jcw-t*nr)
					for s := sc; s < scEnd; s++ {
						apOff := aBlock + s*kb*mr
						i0 := s * mr
						if i0+mr <= m && cols == nr {
							mk.fn(dst, i0*n+jt, n, pa.buf[apOff:], bp[bpOff:], kb, add)
							continue
						}
						mk.fn(tile, 0, nr, pa.buf[apOff:], bp[bpOff:], kb, false)
						storeTile(dst[i0*n+jt:], n, tile, nr, min(mr, m-i0), cols, add)
					}
				}
			}
		}
	}
	pool.Put(tile)
	pool.Put(bp)
}

// storeTile stores (add=false) or adds (add=true) the rows×cols corner of a
// row-major tile (stride nr) into dst rows ldc apart, the dst value first in
// each add like the reference's `row[j] += part[j]`. Edge tiles are computed
// in full into scratch and stored through it, so the padded lanes of a tile
// (zero-filled operands) never reach dst.
//
//easyscale:hotpath
func storeTile(dst []float32, ldc int, tile []float32, nr, rows, cols int, add bool) {
	for r := 0; r < rows; r++ {
		row, part := dst[r*ldc:][:cols], tile[r*nr:][:cols]
		if !add {
			copy(row, part)
			continue
		}
		for c, v := range part {
			row[c] += v
		}
	}
}

// gemmConv computes a convolution GEMM C = A·B (m×n, row-major with stride n)
// whose B operand is never packed: B(kk,j) = img[rowTab[j] + koff[kk]], read
// by the micro-kernel variant's conv tile straight from the zero-bordered
// image. The forward pass passes output positions as rowTab and taps as
// koff; the weight gradient swaps the two. Both tables hold uint32 element
// offsets as float32 bits (see convOffsets). Per output element the kc
// blocks are visited in ascending order with the same products as gemmTiled,
// so the two are bitwise identical; dst is fully overwritten.
//
//easyscale:hotpath
func gemmConv(dst []float32, n int, pa *packedA, img, rowTab, koff []float32) {
	mk := pa.mk
	mr, nr := mk.mr, mk.nr
	tile := pool.GetUninit(maxMR * maxNR) // edge-tile scratch, as in gemmTiled
	var rows [maxNR]int
	for j0 := 0; j0 < n; j0 += nr {
		cols := min(nr, n-j0)
		rows = [maxNR]int{} // a padded column gathers window 0: in bounds, and never stored
		for c := range cols {
			rows[c] = int(math.Float32bits(rowTab[j0+c]))
		}
		for k0 := 0; k0 < pa.k; k0 += pa.kc {
			kb := min(pa.kc, pa.k-k0)
			aBlock := k0 * pa.mtiles * mr
			for s := 0; s < pa.mtiles; s++ {
				ap, i0 := pa.buf[aBlock+s*kb*mr:], s*mr
				if i0+mr <= pa.m && cols == nr {
					mk.conv(dst, i0*n+j0, n, ap, img, rows, koff[k0:], kb, k0 > 0)
					continue
				}
				mk.conv(tile, 0, nr, ap, img, rows, koff[k0:], kb, false)
				storeTile(dst[i0*n+j0:], n, tile, nr, min(mr, pa.m-i0), cols, k0 > 0)
			}
		}
	}
	pool.Put(tile)
}

// normKC normalizes the accumulation block: kc <= 0 or kc > k means a single
// block over all of k — the same rule every reference kernel applies.
func normKC(kc, k int) int {
	if kc <= 0 || kc > k {
		return k
	}
	return kc
}

// matMulTiled is the blocked C = A·B, bitwise identical to matMulRef.
func matMulTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, k, 1)
	bsrc := bPanelSrc{data: b, ld: n}
	gemmTiled(dst, n, &pa, &bsrc)
	pa.release()
}

// matMulATBTiled is the blocked C = Aᵀ·B, bitwise identical to matMulATBRef.
func matMulATBTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, 1, m)
	bsrc := bPanelSrc{data: b, ld: n}
	gemmTiled(dst, n, &pa, &bsrc)
	pa.release()
}

// matMulABTTiled is the blocked C = A·Bᵀ, bitwise identical to matMulABTRef.
func matMulABTTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, k, 1)
	bsrc := bPanelSrc{data: b, ld: k, colMajor: true}
	gemmTiled(dst, n, &pa, &bsrc)
	pa.release()
}
