package kernels

import (
	"fmt"

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
	if d.Batch <= 0 || d.CIn <= 0 || d.COut <= 0 || d.StrideH <= 0 || d.StrideW <= 0 {
		panic(fmt.Sprintf("kernels: invalid ConvDims %+v", d))
	}
	if d.OutH() <= 0 || d.OutW() <= 0 {
		panic(fmt.Sprintf("kernels: ConvDims %+v yields empty output", d))
	}
}

// Im2Col expands one image src[CI,H,W] into cols[CI*KH*KW, OH*OW]. This is a
// pure data movement: it involves no accumulation and is therefore identical
// across all kernel variants. The hot conv paths no longer materialize this
// matrix — the expansion is fused into the GEMM B-panel pack (gemm.go) — but
// the explicit form remains the executable specification the fused packs are
// tested against.
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
// overlapping windows. The accumulation order is fixed by the loop structure
// (it does not depend on hardware parameters), matching the fact that the
// paper localizes non-determinism in reductions and GEMM accumulation, not
// data movement.
func Col2Im(dst, cols []float32, d ConvDims) {
	d.validate()
	oh, ow := d.OutH(), d.OutW()
	if len(cols) != d.ColRows()*d.ColCols() || len(dst) != d.CIn*d.H*d.W {
		panic("kernels: Col2Im buffer size mismatch")
	}
	zeroFill(dst)
	idx := 0
	for c := 0; c < d.CIn; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for y := 0; y < oh; y++ {
					hi := y*d.StrideH + kh - d.PadH
					if hi < 0 || hi >= d.H {
						idx += ow
						continue
					}
					if d.StrideW == 1 {
						// Unit stride: the x-run maps to contiguous image
						// columns, so after clipping the pad overhang the
						// row accumulates with one elementwise add. Each
						// destination element still receives exactly the
						// adds of the scalar walk, in the same order.
						x0 := 0
						if d.PadW > kw {
							x0 = d.PadW - kw
						}
						x1 := d.W - kw + d.PadW
						if x1 > ow {
							x1 = ow
						}
						if x1 > x0 {
							base := (c*d.H+hi)*d.W + kw - d.PadW
							AddF32(dst[base+x0:base+x1], cols[idx+x0:idx+x1])
						}
						idx += ow
						continue
					}
					for x := 0; x < ow; x++ {
						wi := x*d.StrideW + kw - d.PadW
						if wi >= 0 && wi < d.W {
							dst[(c*d.H+hi)*d.W+wi] += cols[idx]
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
// The weight panel is packed once and reused across the batch; each image's
// im2col expansion is fused into the B-panel pack, so no cols matrix is ever
// materialized. Both reorganizations are bitwise invisible.
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
	pa := packA(weight, d.COut, kdim, normKC(kc, kdim), kdim, 1)
	for b := 0; b < d.Batch; b++ {
		out := dst[b*imgOut : (b+1)*imgOut]
		bsrc := bPanelSrc{kind: bIm2Col, data: src[b*imgIn : (b+1)*imgIn], dims: d}
		gemmTiled(out, spatial, &pa, &bsrc)
		if bias != nil {
			addBias(out, bias, d.COut, spatial)
		}
	}
	pa.release()
}

// Conv2DBackward computes the three convolution gradients. gradOut is
// [B,CO,OH,OW]; outputs are gradSrc [B,CI,H,W], gradWeight [CO,CI,KH,KW]
// (accumulated over the batch in batch order), and gradBias [CO]. Any of the
// gradient outputs may be nil to skip. kc blocks the GEMM reductions exactly
// as in the forward pass.
//
// The transposed weight panel of the dX GEMM is packed once per call and
// reused across the batch; the cols operand of the dW GEMM is packed
// directly from the source image (fused im2colᵀ), so the backward pass, like
// the forward, never materializes an im2col matrix.
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

	var dcols []float32
	var paT packedA
	if gradSrc != nil {
		dcols = pool.GetUninit(kdim * spatial)
		// transposed weight panel for dCols = Wᵀ·dOut, packed once per call
		paT = packA(weight, kdim, d.COut, normKC(kc, d.COut), 1, kdim)
	}
	var wpart []float32
	if gradWeight != nil {
		wpart = pool.GetUninit(d.COut * kdim)
	}
	kcW := normKC(kc, spatial)
	for b := 0; b < d.Batch; b++ {
		dout := gradOut[b*imgOut : (b+1)*imgOut] // [CO, spatial]
		if gradWeight != nil {
			// dW += dOut · colsᵀ : [CO, spatial]·[spatial, kdim] = [CO, kdim]
			paD := packA(dout, d.COut, spatial, kcW, spatial, 1)
			bsrc := bPanelSrc{kind: bIm2ColT, data: src[b*imgIn : (b+1)*imgIn], dims: d}
			gemmTiled(wpart, kdim, &paD, &bsrc)
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
			bsrc := bPanelSrc{kind: bRowMajor, data: dout, ld: spatial}
			gemmTiled(dcols, spatial, &paT, &bsrc)
			Col2Im(gradSrc[b*imgIn:(b+1)*imgIn], dcols, d)
		}
	}
	if dcols != nil {
		pool.Put(dcols)
		paT.release()
	}
	if wpart != nil {
		pool.Put(wpart)
	}
}
