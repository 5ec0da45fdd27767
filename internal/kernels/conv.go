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

// border copies one image between its plain layout img[CI,H,W] and the
// interior of its bordered layout (d.bordered()): into the interior when
// toBordered, out of it otherwise. The border itself is never touched.
//
//easyscale:hotpath
func border(img, bordered []float32, d ConvDims, toBordered bool) {
	bw := d.W + 2*d.PadW
	for c := 0; c < d.CIn; c++ {
		for y := 0; y < d.H; y++ {
			plain := img[(c*d.H+y)*d.W:][:d.W]
			in := bordered[(c*(d.H+2*d.PadH)+y+d.PadH)*bw+d.PadW:][:d.W]
			if toBordered {
				copy(in, plain)
			} else {
				copy(plain, in)
			}
		}
	}
}

// convOffsets builds the offset tables of the bordered geometry p (no
// padding) in arena memory: pos[j] is the offset y·SH·W + x·SW of output
// position j's window, tap[kk] the offset (ci·H+kh)·W + kw of tap kk inside a
// window, so im2col(img)[kk][j] = img[pos[j]+tap[kk]]. The arena holds only
// float32, so each uint32 offset is stored as the float32 with its bits; the
// caller releases both.
//
//easyscale:hotpath
func convOffsets(p ConvDims) (pos, tap []float32) {
	pos, tap = pool.GetUninit(p.ColCols()), pool.GetUninit(p.ColRows())
	ow := p.OutW()
	for j := range pos {
		pos[j] = math.Float32frombits(uint32(j/ow*p.StrideH*p.W + j%ow*p.StrideW))
	}
	for kk := range tap {
		ci, kh, kw := kk/(p.KH*p.KW), kk/p.KW%p.KH, kk%p.KW
		tap[kk] = math.Float32frombits(uint32((ci*p.H+kh)*p.W + kw))
	}
	return pos, tap
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

// Conv2D computes the forward convolution dst[B,CO,OH,OW] from src[B,CI,H,W]
// and weight[CO,CI,KH,KW] (+ optional bias[CO]) via im2col + GEMM, with the
// GEMM reduction over CI*KH*KW blocked by kc. Different kc values model
// different GPU architectures' kernels; a fixed kc across types is the D2
// hardware-agnostic kernel.
//
// The weight panel is packed once and reused across the batch; each image is
// copied into a zero-bordered buffer that the conv tile gathers its im2col
// operand from, so no cols matrix is ever materialized. All three
// reorganizations are bitwise invisible.
//
//easyscale:hotpath
func Conv2D(dst, src, weight, bias []float32, d ConvDims, kc int) {
	d.validate()
	oh, ow := d.OutH(), d.OutW()
	kdim, spatial := d.ColRows(), d.ColCols()
	if len(dst) != d.Batch*d.COut*oh*ow ||
		len(src) != d.Batch*d.CIn*d.H*d.W ||
		len(weight) != d.COut*kdim {
		panic("kernels: Conv2D buffer size mismatch")
	}
	imgIn := d.CIn * d.H * d.W
	imgOut := d.COut * oh * ow
	p := d.bordered()
	img := pool.Get(p.CIn * p.H * p.W) // its border stays +0 for every image
	pos, tap := convOffsets(p)
	pa := packA(weight, d.COut, kdim, normKC(kc, kdim), kdim, 1)
	for b := 0; b < d.Batch; b++ {
		out := dst[b*imgOut : (b+1)*imgOut]
		border(src[b*imgIn:(b+1)*imgIn], img, d, true)
		gemmConv(out, spatial, &pa, img, pos, tap, false)
		if bias != nil {
			addBias(out, bias, d.COut, spatial)
		}
	}
	pa.release()
	pool.Put(img)
	pool.Put(pos)
	pool.Put(tap)
}

// Conv2DBackward computes the three convolution gradients. gradOut is
// [B,CO,OH,OW]; outputs are gradSrc [B,CI,H,W], gradWeight [CO,CI,KH,KW]
// (accumulated over the batch in batch order), and gradBias [CO]. Any of the
// gradient outputs may be nil to skip. kc blocks the GEMM reductions exactly
// as in the forward pass.
//
// The transposed weights of dX are packed once per call, one panel per tap,
// and convDX adds each dX tile straight into a zero-bordered gradient; the dW
// GEMM gathers its colsᵀ operand from the zero-bordered source image with the
// forward's offset tables swapped and adds each tile's total straight into
// the zeroed gradWeight, image by image: bitwise the reference's per-image
// partial added onto the running sum. Like the forward, the backward pass
// never materializes an im2col matrix.
//
//easyscale:hotpath
func Conv2DBackward(gradSrc, gradWeight, gradBias, src, weight, gradOut []float32, d ConvDims, kc int) {
	d.validate()
	oh, ow := d.OutH(), d.OutW()
	kdim, spatial := d.ColRows(), d.ColCols()
	imgIn := d.CIn * d.H * d.W
	imgOut := d.COut * oh * ow
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

	p := d.bordered()
	var paT packedA
	if gradSrc != nil {
		// Wᵀ per tap (kh,kw): rows are the input channels, K is COut
		taps := d.KH * d.KW
		paT = newPackedA(d.CIn, d.COut, normKC(kc, d.COut))
		paT.buf = pool.GetUninit(taps * paT.size())
		for t := 0; t < taps; t++ {
			paT.pack(paT.buf[t*paT.size():], weight[t:], taps, kdim)
		}
	}
	var img, pos, tap []float32
	if gradWeight != nil {
		img = pool.Get(p.CIn * p.H * p.W) // its border stays +0 for every image
		pos, tap = convOffsets(p)
	}
	kcW := normKC(kc, spatial)
	for b := 0; b < d.Batch; b++ {
		dout := gradOut[b*imgOut : (b+1)*imgOut] // [CO, spatial]
		if gradWeight != nil {
			// dW += dOut · colsᵀ : [CO, spatial]·[spatial, kdim] = [CO, kdim],
			// each tile's total added straight into gradWeight
			paD := packA(dout, d.COut, spatial, kcW, spatial, 1)
			border(src[b*imgIn:(b+1)*imgIn], img, d, true)
			gemmConv(gradWeight, kdim, &paD, img, tap, pos, true)
			paD.release()
		}
		if gradBias != nil {
			for co := 0; co < d.COut; co++ {
				row := dout[co*spatial : (co+1)*spatial]
				gradBias[co] += SumBlocked(row, kc)
			}
		}
		if gradSrc != nil {
			convDX(gradSrc[b*imgIn:(b+1)*imgIn], dout, d, &paT)
		}
	}
	// Put ignores the nil buffers of a skipped gradient
	paT.release()
	pool.Put(img)
	pool.Put(pos)
	pool.Put(tap)
}

// convDX computes one image's input gradient dst[CI,H,W], the col2im scatter
// of Wᵀ·dOut, without forming Wᵀ·dOut: each mr×nr tile — mr input channels
// at one tap (kh,kw) × nr positions of one output row — is added straight
// into a zero-bordered gradient, where at StrideW 1 it is mr runs of nr
// contiguous elements one channel plane apart. pa holds one Wᵀ panel per
// tap, in tap order.
//
// Taps run outermost, and within one tap each gradient element receives at
// most one add, so every element gets its adds in ascending tap order onto
// +0: the order of the bounds-checked scatter. Each added value is the
// kc-blocked total that Wᵀ·dOut would hold, folded inside the tile call: a
// full row chunk at StrideW 1 adds it in place; a partial chunk or
// StrideW > 1 computes it in scratch and adds it element by element. The
// gradient has a plane for every row of every strip, so a partial channel
// strip adds its zero-weight rows to planes that are never copied out, and
// the border's adds are discarded with it.
//
//easyscale:hotpath
func convDX(dst, dout []float32, d ConvDims, pa *packedA) {
	mk := pa.mk
	mr, nr, cout := mk.mr, mk.nr, pa.k
	p := d.bordered()
	oh, ow := p.OutH(), p.OutW()
	plane, chunks, panel := p.H*p.W, (ow+nr-1)/nr, pa.size()
	// dOut packed once for every tap: per output row, nr-wide strips COut deep
	bp := pool.GetUninit(oh * chunks * nr * cout)
	for y := 0; y < oh; y++ {
		packBRowMajor(bp[y*chunks*nr*cout:], dout, oh*ow, cout, y*ow, ow, nr)
	}
	grad := pool.Get(pa.mtiles * mr * plane)
	tile := pool.GetUninit(maxMR * maxNR) // edge-tile scratch, as in gemmTiled
	for t := 0; t < p.KH*p.KW; t++ {
		wt, kh, kw := pa.buf[t*panel:], t/p.KW, t%p.KW
		for s := 0; s < pa.mtiles; s++ {
			for y := 0; y < oh; y++ {
				for j := 0; j < chunks; j++ {
					o := (s*mr*p.H+y*p.StrideH+kh)*p.W + kw + j*nr*p.StrideW
					b, cols := bp[(y*chunks+j)*nr*cout:], min(nr, ow-j*nr)
					if cols == nr && p.StrideW == 1 {
						mk.fn(grad, o, plane, wt[s*cout*mr:], b, cout, pa.kc, true)
						continue
					}
					mk.fn(tile, 0, nr, wt[s*cout*mr:], b, cout, pa.kc, false)
					for r := 0; r < mr; r++ {
						for c, v := range tile[r*nr : r*nr+cols] {
							grad[o+r*plane+c*p.StrideW] += v
						}
					}
				}
			}
		}
	}
	border(dst, grad, d, false)
	pool.Put(tile)
	pool.Put(grad)
	pool.Put(bp)
}
