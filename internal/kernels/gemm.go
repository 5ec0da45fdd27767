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
//   - A is packed once per call into mr-wide row strips, strip-major: strip s
//     is contiguous over all of K at s·k·mr, kk-major, so the micro-kernel
//     reads it with unit stride regardless of the operand's original layout
//     (normal or transposed).
//   - B is packed k deep, once per column panel, into nr-wide column strips,
//     again kk-major; gemmNC is the panel's float budget, so the panel
//     narrows as K grows. The pack step is a pure data movement, so it can
//     source a plain matrix or a transposed one without touching numerics.
//     The forward and dW conv GEMMs skip it: their B is the im2col matrix,
//     which gemmConv's tile reads straight from the image through two offset
//     tables (one per B dimension), so no panel is ever written. dX's tile
//     reads dOut rows from a guarded copy with plain vector loads (convDX).
//   - Each mr×nr output tile is one micro-kernel call holding mr·nr
//     accumulators: it walks the kc blocks itself, performing mr·nr
//     multiply-adds off mr+nr loads per kk, and folds each block's partial
//     onto the tile's total in ascending block order. Per element this is
//     exactly the reference loop's `part += a·b` and `row[j] += part[j]`
//     sequence, so the result is bitwise identical to the naive kernels for
//     every input, block size, and tile boundary — asserted by the
//     differential tests and fuzzers. The total is stored, or (conv tile)
//     added with the dst value first: dW adds its tiles straight into the
//     gradient.
//
// The register tile mr×nr is a property of the dispatched micro-kernel
// (microkernel.go): 4×4 for the generic variant, 8×8 for AVX2.
// Like the cache blocks, the tile shape only changes which *independent*
// outputs share registers — it is invisible to numerics; only kc (the
// accumulation block, chosen by the device model) shows up in the bits.

const (
	// gemmMCStrips bounds the rows of packed A the micro-kernel loop walks
	// per B strip (the L2-resident A block), in units of mr-row strips.
	gemmMCStrips = 32
	// gemmNC is the float budget of one k-deep B panel (the L1/L2-resident B
	// block): a panel holds gemmNC/k columns, rounded down to whole nr
	// strips and never fewer than one strip.
	gemmNC = 64 * 256
	// tiledMinWork is the m·k·n product below which the dispatchers use the
	// reference loops: at trivial sizes the pack+tile overhead outweighs the
	// register reuse. Dispatch by size is invisible to numerics because the
	// two paths are bitwise identical.
	tiledMinWork = 4096
)

// packedA is operand A packed for the tiled GEMM: ceil(m/mr) row strips of
// width mk.mr (zero-padded past m), strip-major, each contiguous over all of
// K and kk-major, so strip s starts at s·k·mr. kc travels with the panel to
// the micro-kernel, which blocks the strip itself. The buffer is drawn from
// the arena; callers must release(). The micro-kernel descriptor is captured
// at pack time so panel layout and tile function always agree, even across a
// concurrent SetISA.
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

// strip returns row strip s: mr rows, k deep.
func (pa *packedA) strip(s int) []float32 { return pa.buf[s*pa.k*pa.mk.mr:] }

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
	mr, k := pa.mk.mr, pa.k
	off := 0
	for s := 0; s < pa.mtiles; s++ {
		i0 := s * mr
		rows := min(mr, pa.m-i0)
		for p := 0; p < k; p++ {
			base := p * cs
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

func (pa *packedA) release() { pool.Put(pa.buf) }

// bPanelSrc describes the matrix B panels are packed from: B(kk,j) =
// data[kk·ld + j] (row-major: MatMul) or data[j·ld + kk]
// (colMajor: MatMulABT).
type bPanelSrc struct {
	data     []float32
	ld       int
	colMajor bool
}

// pack fills bp with the k × (j0..j0+jw) panel of B in nr-wide column
// strips, each k deep and kk-major, zero-padded past jw. Pure data movement:
// the layout change is invisible to numerics.
func (s *bPanelSrc) pack(bp []float32, k, j0, jw, nr int) {
	if s.colMajor {
		packBColMajor(bp, s.data, s.ld, k, j0, jw, nr)
	} else {
		packBRowMajor(bp, s.data, s.ld, k, j0, jw, nr)
	}
}

//easyscale:hotpath
func packBRowMajor(bp, b []float32, n, k, j0, jw, nr int) {
	off := 0
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		for p := 0; p < k; p++ {
			row := b[p*n+j0+t0:]
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
func packBColMajor(bp, b []float32, ldb, k, j0, jw, nr int) {
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		tOff := t0 * k
		for c := 0; c < tw; c++ {
			col := b[(j0+t0+c)*ldb:]
			for p := 0; p < k; p++ {
				bp[tOff+p*nr+c] = col[p]
			}
		}
		for c := tw; c < nr; c++ {
			for p := 0; p < k; p++ {
				bp[tOff+p*nr+c] = 0
			}
		}
	}
}

// gemmTiled computes C = A·B (m×n, row-major with stride n) from packed A and
// a B-panel source. Each column panel is packed k deep once, and each tile is
// one micro-kernel call that folds its kc blocks in ascending order exactly
// as the reference loops do; dst is fully overwritten.
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
	nc := max(1, gemmNC/(k*nr)) * nr
	bp := pool.GetUninit(min(nc, (n+nr-1)/nr*nr) * k)
	// Edge-tile scratch comes from the arena, not the stack: it is passed to
	// the micro-kernel through a func value, and escape analysis would heap-
	// allocate a stack array on every call through that indirection.
	tile := pool.GetUninit(maxMR * maxNR)
	for jc := 0; jc < n; jc += nc {
		jcw := min(nc, n-jc)
		bsrc.pack(bp, k, jc, jcw, nr)
		for sc := 0; sc < pa.mtiles; sc += gemmMCStrips {
			scEnd := min(pa.mtiles, sc+gemmMCStrips)
			for t := 0; t*nr < jcw; t++ {
				b, jt, cols := bp[t*k*nr:], jc+t*nr, min(nr, jcw-t*nr)
				for s := sc; s < scEnd; s++ {
					i0 := s * mr
					if i0+mr <= m && cols == nr {
						mk.fn(dst, i0*n+jt, n, pa.strip(s), b, k, kc)
						continue
					}
					mk.fn(tile, 0, nr, pa.strip(s), b, k, kc)
					storeTile(dst[i0*n+jt:], n, tile, nr, min(mr, m-i0), cols, false)
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
// offsets as float32 bits (see convOffsets). Each tile is one conv-tile call
// folding its kc blocks with the same products as gemmTiled, so the two are
// bitwise identical. Each tile's total overwrites dst (add=false) or is
// added into it, the dst value first (add=true).
//
//easyscale:hotpath
func gemmConv(dst []float32, n int, pa *packedA, img, rowTab, koff []float32, add bool) {
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
		for s := 0; s < pa.mtiles; s++ {
			i0 := s * mr
			if i0+mr <= pa.m && cols == nr {
				mk.conv(dst, i0*n+j0, n, pa.strip(s), img, rows, koff, pa.k, pa.kc, add)
				continue
			}
			mk.conv(tile, 0, nr, pa.strip(s), img, rows, koff, pa.k, pa.kc, false)
			storeTile(dst[i0*n+j0:], n, tile, nr, min(mr, pa.m-i0), cols, add)
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
