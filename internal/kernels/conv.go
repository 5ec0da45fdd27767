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

// Col2Im scatters cols[CI*KH*KW, OH*OW] back into dst[CI,H,W], accumulating
// overlapping windows onto +0 in the order of the cols matrix. The
// accumulation order is fixed by the loop structure (it does not depend on
// hardware parameters), matching the fact that the paper localizes
// non-determinism in reductions and GEMM accumulation, not data movement.
//
// The scatter runs on a zero-bordered buffer, where every window lies inside
// the image and no run is clipped; the adds that land on the border are
// dropped with it when the interior is copied out. Each element of dst thus
// receives exactly the adds of a bounds-checked walk, in the same order.
//
//easyscale:hotpath
func Col2Im(dst, cols []float32, d ConvDims) {
	d.validate()
	if len(cols) != d.ColRows()*d.ColCols() || len(dst) != d.CIn*d.H*d.W {
		panic("kernels: Col2Im buffer size mismatch")
	}
	p := d.bordered()
	oh, ow := p.OutH(), p.OutW()
	grad := pool.Get(p.CIn * p.H * p.W)
	idx := 0
	for c := 0; c < p.CIn; c++ {
		for kh := 0; kh < p.KH; kh++ {
			for kw := 0; kw < p.KW; kw++ {
				for y := 0; y < oh; y++ {
					row, col := grad[(c*p.H+y*p.StrideH+kh)*p.W+kw:], cols[idx:idx+ow]
					if p.StrideW == 1 {
						row := row[:len(col)] // lets the compiler drop the bounds checks
						for x, v := range col {
							row[x] += v
						}
					} else {
						for x, v := range col {
							row[x*p.StrideW] += v
						}
					}
					idx += ow
				}
			}
		}
	}
	border(dst, grad, d, false)
	pool.Put(grad)
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
		gemmConv(out, spatial, &pa, img, pos, tap)
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
// The transposed weight panel of the dX GEMM is packed once per call and
// reused across the batch; the dW GEMM gathers its colsᵀ operand from the
// zero-bordered source image with the forward's offset tables swapped, so
// the backward pass, like the forward, never materializes an im2col matrix.
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
	var dcols []float32
	var paT packedA
	if gradSrc != nil {
		dcols = pool.GetUninit(kdim * spatial)
		// transposed weight panel for dCols = Wᵀ·dOut, packed once per call
		paT = packA(weight, kdim, d.COut, normKC(kc, d.COut), 1, kdim)
	}
	var wpart, img, pos, tap []float32
	if gradWeight != nil {
		wpart = pool.GetUninit(d.COut * kdim)
		img = pool.Get(p.CIn * p.H * p.W) // its border stays +0 for every image
		pos, tap = convOffsets(p)
	}
	kcW := normKC(kc, spatial)
	for b := 0; b < d.Batch; b++ {
		dout := gradOut[b*imgOut : (b+1)*imgOut] // [CO, spatial]
		if gradWeight != nil {
			// dW += dOut · colsᵀ : [CO, spatial]·[spatial, kdim] = [CO, kdim]
			paD := packA(dout, d.COut, spatial, kcW, spatial, 1)
			border(src[b*imgIn:(b+1)*imgIn], img, d, true)
			gemmConv(wpart, kdim, &paD, img, tap, pos)
			paD.release()
			AddF32(gradWeight, wpart)
		}
		if gradBias != nil {
			for co := 0; co < d.COut; co++ {
				row := dout[co*spatial : (co+1)*spatial]
				gradBias[co] += SumBlocked(row, kc)
			}
		}
		if gradSrc != nil {
			// dCols = Wᵀ · dOut : [kdim, CO]·[CO, spatial]
			bsrc := bPanelSrc{data: dout, ld: spatial}
			gemmTiled(dcols, spatial, &paT, &bsrc)
			Col2Im(gradSrc[b*imgIn:(b+1)*imgIn], dcols, d)
		}
	}
	// Put ignores the nil buffers of a skipped gradient
	pool.Put(dcols)
	paT.release()
	pool.Put(wpart)
	pool.Put(img)
	pool.Put(pos)
	pool.Put(tap)
}
