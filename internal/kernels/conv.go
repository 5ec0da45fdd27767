package kernels

import (
	"fmt"
	"math"

	"repro/internal/pool"
)

// ConvDims describes a 2-D convolution. Layout is NCHW for activations and
// [CO, CI, KH, KW] for weights.
type ConvDims struct {
	Batch, CIn, H, W int
	COut, KH, KW     int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (d ConvDims) OutH() int { return (d.H+2*d.PadH-d.KH)/d.StrideH + 1 }

// OutW returns the output width.
func (d ConvDims) OutW() int { return (d.W+2*d.PadW-d.KW)/d.StrideW + 1 }

// ColRows returns the im2col row count (CI*KH*KW).
func (d ConvDims) ColRows() int { return d.CIn * d.KH * d.KW }

// ColCols returns the im2col column count (OH*OW).
func (d ConvDims) ColCols() int { return d.OutH() * d.OutW() }

func (d ConvDims) validate() {
	if d.Batch <= 0 || d.CIn <= 0 || d.COut <= 0 || d.H <= 0 || d.W <= 0 || d.KH <= 0 || d.KW <= 0 ||
		d.StrideH <= 0 || d.StrideW <= 0 || d.PadH < 0 || d.PadW < 0 {
		panic(fmt.Sprintf("kernels: invalid ConvDims %+v", d))
	}
	if d.KH > d.H+2*d.PadH || d.KW > d.W+2*d.PadW {
		// OutH/OutW would truncate toward zero and still count one window
		panic(fmt.Sprintf("kernels: ConvDims %+v has a kernel larger than the padded image", d))
	}
}

// bordered is the geometry of the zero-bordered image the conv paths read:
// the input grown by its padding on every side, with no padding left, so
// OutH and OutW are unchanged. A stored +0 border is bitwise the literal 0
// Im2Col writes outside the image.
func (d ConvDims) bordered() ConvDims {
	d.H, d.W = d.H+2*d.PadH, d.W+2*d.PadW
	d.PadH, d.PadW = 0, 0
	return d
}

// border copies one image img[CI,H,W] into the interior of its bordered
// layout (d.bordered()). The border itself is never touched.
//
//easyscale:hotpath
func border(img, bordered []float32, d ConvDims) {
	bw := d.W + 2*d.PadW
	for c := 0; c < d.CIn; c++ {
		for y := 0; y < d.H; y++ {
			copy(bordered[(c*(d.H+2*d.PadH)+y+d.PadH)*bw+d.PadW:][:d.W], img[(c*d.H+y)*d.W:][:d.W])
		}
	}
}

// convOffsets fills the offset tables of the bordered geometry p (no
// padding): pos[j] is the offset y·SH·W + x·SW of output position j's window,
// tap[kk] the offset (ci·H+kh)·W + kw of tap kk inside a window, so
// im2col(img)[kk][j] = img[pos[j]+tap[kk]]. Offsets are uint32 stored as
// float32 bits (checkOffsets).
func convOffsets(p ConvDims, pos, tap []float32) {
	ow := p.OutW()
	for j := range pos {
		pos[j] = math.Float32frombits(uint32(j/ow*p.StrideH*p.W + j%ow*p.StrideW))
	}
	for kk := range tap {
		ci, kh, kw := kk/(p.KH*p.KW), kk/p.KW%p.KH, kk%p.KW
		tap[kk] = math.Float32frombits(uint32((ci*p.H+kh)*p.W + kw))
	}
}

// Im2Col expands one image src[CI,H,W] into cols[CI*KH*KW, OH*OW]. This is a
// pure data movement: it involves no accumulation and is therefore identical
// across all kernel variants. The hot conv paths never materialize this
// matrix — their GEMM tile gathers it from the image (gemmConv) — but the
// explicit form remains the executable specification they are tested
// against.
func Im2Col(cols, src []float32, d ConvDims) {
	d.validate()
	oh, ow := d.OutH(), d.OutW()
	if len(cols) != d.ColRows()*d.ColCols() || len(src) != d.CIn*d.H*d.W {
		panic("kernels: Im2Col buffer size mismatch")
	}
	idx := 0
	for c := 0; c < d.CIn; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for y := 0; y < oh; y++ {
					hi := y*d.StrideH + kh - d.PadH
					for x := 0; x < ow; x++ {
						wi := x*d.StrideW + kw - d.PadW
						if hi >= 0 && hi < d.H && wi >= 0 && wi < d.W {
							cols[idx] = src[(c*d.H+hi)*d.W+wi]
						} else {
							cols[idx] = 0
						}
						idx++
					}
				}
			}
		}
	}
}

// addBias adds bias[co] to each spatial row of one image's output.
func addBias(out, bias []float32, cout, spatial int) {
	for co := 0; co < cout; co++ {
		bv := bias[co]
		row := out[co*spatial : (co+1)*spatial]
		for j := range row {
			row[j] += bv
		}
	}
}

// ConvPlan is what a convolution resolves once per layer instead of once per
// call, as cuDNN does for a pinned algorithm (§3.3): the offset tables of
// the bordered geometry, a zero-bordered buffer for the whole batch, the
// edge-tile scratch and the dX plan, none of which depends on kc. The zero
// value is ready. The first call lays the plan out; a call with other
// ConvDims lays it out again, and so does a dX call under another
// micro-kernel variant. A plan is single-goroutine, like the layer that
// holds it.
type ConvPlan struct {
	d        ConvDims
	img      []float32 // the batch, bordered (d.bordered()); heads the plan's one buffer
	pos, tap []float32 // offset tables of the bordered geometry (convOffsets)
	tile     []float32 // edge-tile scratch of gemmConv and convDX
	src      *float32  // &src[0] of the batch img holds, or nil
	dx       dxPlan
	borrowed bool // buffers come from the arena, and the caller returns them
}

// alloc returns n floats in place of old: from the arena for a borrowed
// plan, otherwise old's storage when it is large enough.
func (p *ConvPlan) alloc(old []float32, n int) []float32 {
	if p.borrowed {
		pool.Put(old)
		return pool.GetUninit(n)
	}
	if cap(old) < n {
		return make([]float32, n)
	}
	return old[:n]
}

// layout lays the plan out for d, unless it already is.
func (p *ConvPlan) layout(d ConvDims) {
	if p.img != nil && p.d == d {
		return
	}
	b := d.bordered()
	n, k, span := b.ColCols(), b.ColRows(), d.Batch*b.CIn*b.H*b.W
	checkOffsets(span / d.Batch)
	p.d, p.src, p.dx.mk = d, nil, nil
	mem := p.alloc(p.img, span+n+k+maxMR*maxNR)
	p.img, p.pos, p.tap, p.tile = mem[:span], mem[span:][:n], mem[span+n:][:k], mem[span+n+k:]
	zeroFill(p.img) // the borders stay +0 for every image
	convOffsets(b, p.pos, p.tap)
}

// Forward is Conv2D on the plan. It borders image b into slot b of the
// batch buffer and remembers src for the Backward that follows.
//
//easyscale:hotpath
func (p *ConvPlan) Forward(dst, src, weight, bias []float32, d ConvDims, kc int) {
	d.validate()
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn, imgOut := d.CIn*d.H*d.W, d.COut*spatial
	if len(dst) != d.Batch*imgOut || len(src) != d.Batch*imgIn || len(weight) != d.COut*kdim {
		panic("kernels: Conv2D buffer size mismatch")
	}
	p.layout(d)
	span := len(p.img) / d.Batch
	pa := packA(weight, d.COut, kdim, normKC(kc, kdim), kdim, 1)
	for b := 0; b < d.Batch; b++ {
		out, img := dst[b*imgOut:(b+1)*imgOut], p.img[b*span:(b+1)*span]
		border(src[b*imgIn:(b+1)*imgIn], img, d)
		gemmConv(out, spatial, &pa, img, p.pos, p.tap, p.tile, false)
		if bias != nil {
			addBias(out, bias, d.COut, spatial)
		}
	}
	pa.release()
	p.src = &src[0]
}

// Backward is Conv2DBackward on the plan. dW gathers from the batch the
// last Forward bordered if src is that call's src, which must be unchanged
// since; any other src is bordered again.
//
//easyscale:hotpath
func (p *ConvPlan) Backward(gradSrc, gradWeight, gradBias, src, weight, gradOut []float32, d ConvDims, kc int) {
	d.validate()
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn, imgOut := d.CIn*d.H*d.W, d.COut*spatial
	if len(gradOut) != d.Batch*imgOut || len(src) != d.Batch*imgIn || len(weight) != d.COut*kdim {
		panic("kernels: Conv2DBackward buffer size mismatch")
	}
	if gradWeight != nil {
		if len(gradWeight) != d.COut*kdim {
			panic("kernels: Conv2DBackward gradWeight size mismatch")
		}
		zeroFill(gradWeight)
	}
	if gradBias != nil {
		if len(gradBias) != d.COut {
			panic("kernels: Conv2DBackward gradBias size mismatch")
		}
		zeroFill(gradBias)
	}
	if gradSrc != nil && len(gradSrc) != d.Batch*imgIn {
		panic("kernels: Conv2DBackward gradSrc size mismatch")
	}
	p.layout(d)
	var paT, paD packedA
	if gradSrc != nil {
		// Wᵀ per tap (kh,kw): rows are the input channels, K is COut
		taps := d.KH * d.KW
		paT = newPackedA(d.CIn, d.COut, normKC(kc, d.COut))
		paT.buf = pool.GetUninit(taps * paT.size())
		for t := 0; t < taps; t++ {
			paT.pack(paT.buf[t*paT.size():], weight[t:], taps, kdim)
		}
		p.layoutDX(&paT)
	}
	if gradWeight != nil {
		paD = newPackedA(d.COut, spatial, normKC(kc, spatial))
		paD.buf = pool.GetUninit(paD.size())
	}
	bordered, span := p.src == &src[0], len(p.img)/d.Batch
	for b := 0; b < d.Batch; b++ {
		dout := gradOut[b*imgOut : (b+1)*imgOut] // [CO, spatial]
		if gradWeight != nil {
			// dW += dOut · colsᵀ : [CO, spatial]·[spatial, kdim] = [CO, kdim],
			// each tile's total added straight into gradWeight
			img := p.img[b*span : (b+1)*span]
			if !bordered {
				border(src[b*imgIn:(b+1)*imgIn], img, d)
			}
			paD.pack(paD.buf, dout, spatial, 1)
			gemmConv(gradWeight, kdim, &paD, img, p.tap, p.pos, p.tile, true)
		}
		if gradBias != nil {
			for co := 0; co < d.COut; co++ {
				row := dout[co*spatial : (co+1)*spatial]
				gradBias[co] += SumBlocked(row, kc)
			}
		}
		if gradSrc != nil {
			p.convDX(gradSrc[b*imgIn:(b+1)*imgIn], dout, &paT)
		}
	}
	// Put ignores the nil buffers of skipped gradients
	paD.release()
	paT.release()
	p.src = nil
}

// Conv2D computes the forward convolution dst[B,CO,OH,OW] from src[B,CI,H,W]
// and weight[CO,CI,KH,KW] (+ optional bias[CO]) via im2col + GEMM, with the
// GEMM reduction over CI*KH*KW blocked by kc. Different kc values model
// different GPU architectures' kernels; a fixed kc across types is the D2
// hardware-agnostic kernel.
//
// The weight panel is packed once and reused across the batch; each image is
// copied into its slot of a zero-bordered batch buffer that the conv tile
// gathers its im2col operand from, so no cols matrix is ever materialized.
// All three reorganizations are bitwise invisible. Conv2D runs on a plan
// borrowed from the arena for one call; a layer holds its own ConvPlan.
//
//easyscale:hotpath
func Conv2D(dst, src, weight, bias []float32, d ConvDims, kc int) {
	p := ConvPlan{borrowed: true}
	p.Forward(dst, src, weight, bias, d, kc)
	pool.Put(p.img) // the whole buffer: img heads it
}

// Conv2DBackward computes the three convolution gradients. gradOut is
// [B,CO,OH,OW]; outputs are gradSrc [B,CI,H,W], gradWeight [CO,CI,KH,KW]
// (accumulated over the batch in batch order), and gradBias [CO]. Any of the
// gradient outputs may be nil to skip. kc blocks the GEMM reductions exactly
// as in the forward pass.
//
// The transposed weights of dX are packed once per call, one panel per tap,
// and convDX gathers each dX tile from a guarded copy of dOut, walking its
// taps in registers and storing every dX row once; the dW GEMM gathers its
// colsᵀ operand from the zero-bordered source image with the forward's
// offset tables swapped and adds each tile's total straight into the zeroed
// gradWeight, image by image: bitwise the reference's per-image partial
// added onto the running sum. Like the forward, the backward pass never
// materializes an im2col matrix. Conv2DBackward runs on a plan borrowed
// from the arena for one call, so it borders src itself.
//
//easyscale:hotpath
func Conv2DBackward(gradSrc, gradWeight, gradBias, src, weight, gradOut []float32, d ConvDims, kc int) {
	p := ConvPlan{borrowed: true}
	p.Backward(gradSrc, gradWeight, gradBias, src, weight, gradOut, d, kc)
	pool.Put(p.img) // img and dx.dout each head a whole buffer
	pool.Put(p.dx.dout)
}

// dxPlan is what convDX reads besides the Wᵀ panels, laid out once per
// plan for the tile shape of the panels' variant.
//
// dout is one image's dOut on a grid whose rows are rowLen floats apart:
// output position (y, x) sits at y·rowLen + left−PadW + x·StrideW, so dX
// position w reads tap kw's operand at left + w − kw, and an nr-wide run of
// positions is one plain vector load at any tap. At StrideW 1 the rows are
// dOut's own, so the grid is one copy of the image; at StrideW > 1 each row
// is zero-dilated. The lanes that fall off a row read the guard at either
// end, a neighbouring row or a dilation zero, which the masks discard; convDX
// writes only grid positions, so those stay +0 from the layout on.
//
// taps holds one list per (dX row, nr-wide run), ldl floats apart: a count
// n, then n records {aOff, bOff, mask[nr]} in ascending tap order — the
// tap's Wᵀ panel offset, its dOut row and column on the grid, and which
// lanes read a real dOut position (all-ones) or fall off the image or
// between strides (+0). A tap whose dOut row is off the image or between
// strides has no record. Offsets are uint32 stored as float32 bits, as in
// convOffsets. The lane masks per (run, kw) follow the lists.
type dxPlan struct {
	mk                      *mkDesc   // the variant laid out for, or nil
	dout, taps              []float32 // dout heads their one buffer
	rowLen, left, runs, ldl int
}

// onGrid reports whether v is i·s for an index i in [0,n).
func onGrid(v, s, n int) bool { return v >= 0 && v <= (n-1)*s && (s == 1 || v%s == 0) }

// layoutDX lays out the dX plan of the plan's geometry for pa's tile shape,
// unless it already is.
func (p *ConvPlan) layoutDX(pa *packedA) {
	if p.dx.mk == pa.mk {
		return
	}
	d, x := p.d, &p.dx
	nr, panel, oh, ow := pa.mk.nr, pa.size(), d.OutH(), d.OutW()
	rec := 2 + nr
	x.mk, x.left, x.runs, x.ldl = pa.mk, max(d.KW-1, d.PadW), (d.W+nr-1)/nr, 1+d.KH*d.KW*rec
	x.rowLen = (ow-1)*d.StrideW + 1
	grid, lists := d.COut*oh*x.rowLen+x.left+x.runs*nr, d.H*x.runs*x.ldl
	mem := p.alloc(x.dout, grid+lists+x.runs*d.KW*nr)
	x.dout, x.taps = mem[:grid], mem[grid:]
	zeroFill(x.dout)
	masks := x.taps[lists:]
	for i := range masks {
		j, kw, c := i/(d.KW*nr), i/nr%d.KW, i%nr
		masks[i] = 0
		if w := j*nr + c; w < d.W && onGrid(w+d.PadW-kw, d.StrideW, ow) {
			masks[i] = math.Float32frombits(^uint32(0))
		}
	}
	for h := 0; h < d.H; h++ {
		for j := 0; j < x.runs; j++ {
			list, n := x.taps[(h*x.runs+j)*x.ldl:], 0
			for kh := 0; kh < d.KH; kh++ {
				v := h + d.PadH - kh // the dOut row, times StrideH
				if !onGrid(v, d.StrideH, oh) {
					continue
				}
				row := v / d.StrideH * x.rowLen
				for kw := 0; kw < d.KW; kw++ {
					r := list[1+n*rec:][:rec]
					r[0] = math.Float32frombits(uint32((kh*d.KW + kw) * panel))
					r[1] = math.Float32frombits(uint32(row + x.left + j*nr - kw))
					for c, m := range masks[(j*d.KW+kw)*nr:][:nr] {
						r[2+c] = m
					}
					n++
				}
			}
			list[0] = math.Float32frombits(uint32(n))
		}
	}
}

// convDX computes one image's input gradient dst[CI,H,W], the col2im scatter
// of Wᵀ·dOut, as a gather: one tile call per (channel strip, dX row, nr-wide
// run of positions) walks the run's tap list in ascending tap order, sums
// each tap's kc-blocked partial over COut, masks its off-image lanes to +0
// and adds it, total first, onto a running total that starts at +0; the
// total is stored once. pa holds one Wᵀ panel per tap, in tap order, and
// the dX plan is laid out for its variant.
//
// The scatter gives each element +0 ⊕ T₁ ⊕ T₂ ⊕ … over its valid taps in
// ascending order. A running total that starts at +0 is never −0, so the +0
// a masked lane adds changes nothing, and the gather returns the same bits.
// A masked lane's partial is computed and then discarded, never formed from
// a padding zero, so a ±Inf or NaN weight cannot reach a position whose
// windows do not use it. A partial channel strip or run is computed in the
// tile scratch and stored through storeTile, as gemmConv's edge tiles are.
//
//easyscale:hotpath
func (p *ConvPlan) convDX(dst, dout []float32, pa *packedA) {
	d, x, mk := p.d, &p.dx, pa.mk
	mr, nr, cout := mk.mr, mk.nr, pa.k
	oh, ow := d.OutH(), d.OutW()
	grid := x.dout[x.left-d.PadW:]
	if d.StrideW == 1 {
		copy(grid, dout)
	} else {
		for r := 0; r < cout*oh; r++ {
			for c, v := range dout[r*ow : (r+1)*ow] {
				grid[r*x.rowLen+c*d.StrideW] = v
			}
		}
	}
	plane, ldb := d.H*d.W, oh*x.rowLen
	for h := 0; h < d.H; h++ {
		for j := 0; j < x.runs; j++ {
			list := x.taps[(h*x.runs+j)*x.ldl:][:x.ldl]
			n, cols := int(math.Float32bits(list[0])), min(nr, d.W-j*nr)
			for s := 0; s < pa.mtiles; s++ {
				o, rows := s*mr*plane+h*d.W+j*nr, min(mr, d.CIn-s*mr)
				if rows == mr && cols == nr {
					mk.dx(dst, o, plane, pa.strip(s), x.dout, list[1:], n, ldb, cout, pa.kc)
					continue
				}
				mk.dx(p.tile, 0, nr, pa.strip(s), x.dout, list[1:], n, ldb, cout, pa.kc)
				storeTile(dst[o:], plane, p.tile, nr, rows, cols, false)
			}
		}
	}
}
