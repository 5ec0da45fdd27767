package kernels

import (
	"fmt"
	"math"

	"repro/internal/pool"
)

// Register-tiled GEMM under the bitwise contract.
//
// The determinism argument of §3.3 pins the *per-output-element accumulation
// order*: every C[i,j] must add its k-partials in the fixed kc-blocked order
// (products in ascending kk within a block, block partials in ascending block
// order). It says nothing about the loop order over *independent* outputs, or
// about where operands live — which leaves the kernels free to be
// reorganized for locality:
//
//   - A is packed once per call into mr-wide row strips, strip-major: strip s
//     is contiguous over all of K at s·k·mr, kk-major, so the micro-kernel
//     reads it with unit stride regardless of the operand's original layout
//     (normal or transposed).
//   - B is never packed. Every GEMM but dX gathers it through two offset
//     tables, one per B dimension (gemmConv): the convolutions read their
//     im2col matrix straight from the zero-bordered image (convOffsets), and
//     MatMul, MatMulATB and MatMulABT read a plain or transposed matrix in
//     place (gemmDense). dX's tile reads dOut rows from a guarded copy with
//     plain vector loads (convDX).
//   - Each mr×nr output tile is one micro-kernel call holding mr·nr
//     accumulators: it walks the kc blocks itself, performing mr·nr
//     multiply-adds off mr+nr loads per kk, and folds each block's partial
//     onto the tile's total in ascending block order. Per element this is
//     exactly the reference loop's `part += a·b` and `row[j] += part[j]`
//     sequence, so the result is bitwise identical to the naive kernels for
//     every input, block size, and tile boundary — asserted by the
//     differential tests and fuzzers. The total is stored, or added with the
//     dst value first: dW adds its tiles straight into the gradient.
//
// The register tile mr×nr is a property of the dispatched micro-kernel
// (microkernel.go): 4×4 for the generic variant, 8×8 for AVX2. The tile
// shape only changes which *independent* outputs share registers — it is
// invisible to numerics; only kc (the accumulation block, chosen by the
// device model) shows up in the bits.

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

// pack writes A(i,kk) = a[i·rs + kk·cs] into buf in pa's layout, rows past
// m as zeros: unit row stride (MatMulATB's A) copies each kk's rows; unit
// column stride reads rows as slices, storing eight floats per kk for a full
// 8-row strip, scattering each live row for a short one; any other gathers.
//
//easyscale:hotpath
func (pa *packedA) pack(buf, a []float32, rs, cs int) {
	mr, k := pa.mk.mr, pa.k
	for s := 0; s < pa.mtiles; s++ {
		i0 := s * mr
		rows := min(mr, pa.m-i0)
		out := buf[s*mr*k:][:mr*k]
		switch {
		case rs == 1 && rows == 8:
			for p := range k {
				*(*[8]float32)(out[8*p:]) = *(*[8]float32)(a[i0+p*cs:])
			}
		case rs == 1:
			clear(out)
			for p := range k {
				copy(out[p*mr:], a[i0+p*cs:][:rows])
			}
		case cs == 1 && rows == 8:
			r0, r1, r2, r3 := a[i0*rs:][:k], a[(i0+1)*rs:][:k], a[(i0+2)*rs:][:k], a[(i0+3)*rs:][:k]
			r4, r5, r6, r7 := a[(i0+4)*rs:][:k], a[(i0+5)*rs:][:k], a[(i0+6)*rs:][:k], a[(i0+7)*rs:][:k]
			for p, v := range r0 {
				o := out[8*p:][:8]
				o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = v, r1[p], r2[p], r3[p], r4[p], r5[p], r6[p], r7[p]
			}
		case cs == 1 && rows < mr:
			clear(out)
			for r := range rows {
				for p, v := range a[(i0+r)*rs:][:k] {
					out[p*mr+r] = v
				}
			}
		default:
			if rows < mr {
				clear(out)
			}
			for p := range k {
				o := out[p*mr:][:rows]
				for r := range o {
					o[r] = a[(i0+r)*rs+p*cs]
				}
			}
		}
	}
}

func (pa *packedA) release() { pool.Put(pa.buf) }

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

// gemmConv computes C = A·B (m×n, row-major with stride n) whose B operand is
// never packed: B(kk,j) = img[rowTab[j] + koff[kk]], read by the micro-kernel
// variant's conv tile straight from img. The forward conv passes output
// positions as rowTab and taps as koff and the weight gradient swaps the
// two; gemmDense passes a dense matrix's column and row offsets. Both tables
// hold uint32 element offsets as float32 bits (checkOffsets). Each tile is
// one conv-tile call folding its kc blocks in the reference order. Each
// tile's total overwrites dst (add=false) or is added into it, the dst value
// first (add=true). An edge tile is computed in tile, the caller's
// maxMR·maxNR scratch: not a stack array, because it reaches the tile
// through a func value and escape analysis would heap-allocate it per call.
//
//easyscale:hotpath
func gemmConv(dst []float32, n int, pa *packedA, img, rowTab, koff, tile []float32, add bool) {
	mk := pa.mk
	mr, nr := mk.mr, mk.nr
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
}

// normKC normalizes the accumulation block: kc <= 0 or kc > k means a single
// block over all of k — the same rule every reference kernel applies.
func normKC(kc, k int) int {
	if kc <= 0 || kc > k {
		return k
	}
	return kc
}

// checkOffsets panics on an operand of span elements that the uint32 offset
// tables of a gathered B cannot index, before anything is drawn, instead of
// letting the offsets wrap. Each table entry is a uint32 element offset
// stored as the float32 with its bits (the arena holds only float32).
func checkOffsets(span int) {
	if uint64(span) > 1<<32 {
		panic(fmt.Sprintf("kernels: a gathered operand of %d elements is past the uint32 offset tables", span))
	}
}

// gemmDense computes C = A·B (m×n, row-major with stride n) for A(i,kk) =
// a[i·ars + kk·acs], packed kc-blocked, and a dense B(kk,j) = b[j·bcs +
// kk·brs], gathered through gemmConv with col[j] = j·bcs and row[kk] = kk·brs
// as its offset tables: to the conv tile a dense matrix is an image whose
// windows are its columns. One arena draw holds packed A, both tables and
// the edge-tile scratch.
//
//easyscale:hotpath
func gemmDense(dst, a, b []float32, m, k, n, kc, ars, acs, bcs, brs int) {
	if k == 0 {
		zeroFill(dst[:m*n]) // no k-partials: the reference zeroes the output
		return
	}
	checkOffsets(n * k)
	pa := newPackedA(m, k, normKC(kc, k))
	buf := pool.GetUninit(pa.size() + n + k + maxMR*maxNR)
	pa.buf = buf[:pa.size()]
	pa.pack(pa.buf, a, ars, acs)
	col, row := buf[pa.size():][:n], buf[pa.size()+n:][:k]
	for j := range col {
		col[j] = math.Float32frombits(uint32(j * bcs))
	}
	for kk := range row {
		row[kk] = math.Float32frombits(uint32(kk * brs))
	}
	gemmConv(dst, n, &pa, b, col, row, buf[pa.size()+n+k:], false)
	pool.Put(buf)
}
