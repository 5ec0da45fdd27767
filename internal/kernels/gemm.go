package kernels

import "repro/internal/pool"

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
//     can source a plain matrix, a transposed one, or an image via the
//     im2col index map (the conv path) without touching numerics.
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

// packA packs A(i,kk) = a[i·rs + kk·cs] — rs/cs express normal (rs=lda,cs=1)
// and transposed (rs=1,cs=lda) operands with one packer. kc must already be
// normalized to [1,k] (or k==0).
func packA(a []float32, m, k, kc, rs, cs int) packedA {
	mk := activeMK()
	mr := mk.mr
	mtiles := (m + mr - 1) / mr
	pa := packedA{m: m, k: k, kc: kc, mtiles: mtiles, mk: mk}
	pa.buf = pool.GetUninit(mtiles * mr * k)
	off := 0
	for k0 := 0; k0 < k; k0 += kc {
		kb := min(kc, k-k0)
		for s := 0; s < mtiles; s++ {
			i0 := s * mr
			rows := min(mr, m-i0)
			for p := 0; p < kb; p++ {
				base := (k0 + p) * cs
				for r := 0; r < rows; r++ {
					pa.buf[off] = a[(i0+r)*rs+base]
					off++
				}
				for r := rows; r < mr; r++ {
					pa.buf[off] = 0
					off++
				}
			}
		}
	}
	return pa
}

func (pa *packedA) release() { pool.Put(pa.buf) }

// bPanelSrc describes where B panels are packed from. A plain struct (not a
// closure) so per-image conv packs do not allocate.
type bPanelSrc struct {
	kind int
	data []float32 // matrix for row/col-major kinds, the zero-bordered image for im2col kinds
	ld   int       // leading dimension: n (row-major) or k (col-major)
	dims ConvDims  // im2col geometry of the bordered image (no padding) for the conv kinds
}

const (
	bRowMajor = iota // B(kk,j) = data[kk·ld + j]       (MatMul, conv-backward dX)
	bColMajor        // B(kk,j) = data[j·ld + kk]       (MatMulABT)
	bIm2Col          // B(kk,j) = im2col(data)[kk][j]   (conv forward; kk over CI·KH·KW, j over OH·OW)
	bIm2ColT         // B(kk,j) = im2col(data)[j][kk]   (conv-backward dW; kk over OH·OW, j over CI·KH·KW)
)

// pack fills bp with the (k0..k0+kb) × (j0..j0+jw) block of B in nr-wide
// column strips, kk-major within a strip, zero-padded past jw. Pure data
// movement: the layout change is invisible to numerics.
func (s *bPanelSrc) pack(bp []float32, k0, kb, j0, jw, nr int) {
	switch s.kind {
	case bRowMajor:
		packBRowMajor(bp, s.data, s.ld, k0, kb, j0, jw, nr)
	case bColMajor:
		packBColMajor(bp, s.data, s.ld, k0, kb, j0, jw, nr)
	case bIm2Col:
		packBIm2Col(bp, s.data, &s.dims, k0, kb, j0, jw, nr)
	case bIm2ColT:
		packBIm2ColT(bp, s.data, &s.dims, k0, kb, j0, jw, nr)
	}
}

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

// packBIm2Col packs the forward-conv B operand straight from the
// zero-bordered image (d has no padding, see ConvDims.bordered): the im2col
// matrix row kk = (ci,kh,kw) at column j = (y,x) is src[ci, y·sh+kh, x·sw+kw].
// A strip's column offsets are computed once; every row of the strip is then
// a gather from its tap, or one 8-wide move when the strip is a stride-1 run
// of one output row. Fusing the expansion into the pack step removes the
// materialized cols buffer and its extra memory round trip.
//
//easyscale:hotpath
func packBIm2Col(bp, src []float32, d *ConvDims, k0, kb, j0, jw, nr int) {
	ow := d.OutW()
	var at [maxNR]int
	off := 0
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		y, x := (j0+t0)/ow, (j0+t0)%ow
		run := tw == 8 && nr == 8 && d.StrideW == 1 && x+8 <= ow
		at[0] = y*d.StrideH*d.W + x*d.StrideW
		for c := 1; c < tw && !run; c++ { // a run reads from at[0] on
			if x++; x == ow {
				x, y = 0, y+1
			}
			at[c] = y*d.StrideH*d.W + x*d.StrideW
		}
		kh, kw := k0/d.KW%d.KH, k0%d.KW
		tap := (k0/(d.KH*d.KW)*d.H+kh)*d.W + kw
		for p := 0; p < kb; p++ {
			row := bp[off : off+nr]
			if run {
				// through a local, which compiles to register moves: a
				// direct assignment between two possibly overlapping
				// arrays calls memmove
				v := *(*[8]float32)(src[tap+at[0]:])
				*(*[8]float32)(row) = v
			} else {
				for c, a := range at[:tw] {
					row[c] = src[tap+a]
				}
				zeroFill(row[tw:])
			}
			off, tap = off+nr, tap+1
			if kw++; kw == d.KW {
				kw, tap = 0, tap+d.W-d.KW
				if kh++; kh == d.KH {
					kh, tap = 0, tap+(d.H-d.KH)*d.W
				}
			}
		}
	}
}

// packBIm2ColT packs the transposed im2col matrix (reduction over spatial
// positions, columns over CI·KH·KW), the B operand of the weight-gradient
// GEMM dW = dY·colsᵀ, straight from the zero-bordered image. A strip's nr
// tap offsets are computed once; each spatial position then stores one
// contiguous nr-wide row gathered from its window.
//
//easyscale:hotpath
func packBIm2ColT(bp, src []float32, d *ConvDims, k0, kb, j0, jw, nr int) {
	ow := d.OutW()
	var tap [maxNR]int
	off := 0
	ci, kh, kw := j0/(d.KH*d.KW), j0/d.KW%d.KH, j0%d.KW
	for t0 := 0; t0 < jw; t0 += nr {
		tw := min(nr, jw-t0)
		for c := 0; c < tw; c++ {
			tap[c] = (ci*d.H+kh)*d.W + kw
			if kw++; kw == d.KW {
				if kw, kh = 0, kh+1; kh == d.KH {
					kh, ci = 0, ci+1
				}
			}
		}
		y, x := k0/ow, k0%ow
		for p := 0; p < kb; p++ {
			win, row := src[y*d.StrideH*d.W+x*d.StrideW:], bp[off:off+nr]
			for c, t := range tap[:tw] {
				row[c] = win[t]
			}
			zeroFill(row[tw:])
			off += nr
			if x++; x == ow {
				x, y = 0, y+1
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
						// edge tile: compute the full register tile into
						// scratch, then store/add only the valid region —
						// padded lanes (zero-filled operands) never reach dst
						mk.fn(tile, 0, nr, pa.buf[apOff:], bp[bpOff:], kb, false)
						rows := min(mr, m-i0)
						if add {
							for r := 0; r < rows; r++ {
								row := dst[(i0+r)*n+jt:]
								for c := 0; c < cols; c++ {
									row[c] += tile[r*nr+c]
								}
							}
						} else {
							for r := 0; r < rows; r++ {
								row := dst[(i0+r)*n+jt:]
								for c := 0; c < cols; c++ {
									row[c] = tile[r*nr+c]
								}
							}
						}
					}
				}
			}
		}
	}
	pool.Put(tile)
	pool.Put(bp)
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
	bsrc := bPanelSrc{kind: bRowMajor, data: b, ld: n}
	gemmTiled(dst, n, &pa, &bsrc)
	pa.release()
}

// matMulATBTiled is the blocked C = Aᵀ·B, bitwise identical to matMulATBRef.
func matMulATBTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, 1, m)
	bsrc := bPanelSrc{kind: bRowMajor, data: b, ld: n}
	gemmTiled(dst, n, &pa, &bsrc)
	pa.release()
}

// matMulABTTiled is the blocked C = A·Bᵀ, bitwise identical to matMulABTRef.
func matMulABTTiled(dst, a, b []float32, m, k, n, kc int) {
	kc = normKC(kc, k)
	pa := packA(a, m, k, kc, k, 1)
	bsrc := bPanelSrc{kind: bColMajor, data: b, ld: k}
	gemmTiled(dst, n, &pa, &bsrc)
	pa.release()
}
