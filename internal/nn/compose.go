package nn

import (
	"repro/internal/tensor"
)

// Residual wraps a body with an identity skip connection: y = x + body(x).
// The body must preserve the input shape.
type Residual struct {
	Body Layer
}

// NewResidual constructs a residual block.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// Forward computes x + body(x).
//
//easyscale:hotpath
func (r *Residual) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	y := r.Body.Forward(ctx, x)
	shapeCheck(tensor.SameShape(x, y), "Residual: body changed shape %v → %v", shapeOf{x}, shapeOf{y})
	// A fresh tensor rather than y: activations may cache their output.
	return ctx.add(y, x)
}

// Backward adds the skip gradient to the body gradient.
//
//easyscale:hotpath
func (r *Residual) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	// A fresh tensor rather than the body's: it may be a view of grad (Flatten).
	return ctx.add(r.Body.Backward(ctx, grad), grad)
}

// Params returns the body parameters.
func (r *Residual) Params() []*Parameter { return r.Body.Params() }

// StateTensors exposes the body's stateful buffers, if any.
func (r *Residual) StateTensors() []*tensor.Tensor {
	if st, ok := r.Body.(Stateful); ok {
		return st.StateTensors()
	}
	return nil
}

// MeanPool averages a [B, L, D] sequence over L, yielding [B, D] — the
// pooling used by the transformer classification heads.
type MeanPool struct {
	b, l, d int
}

// NewMeanPool constructs a sequence mean pool.
func NewMeanPool() *MeanPool { return &MeanPool{} }

// Forward averages over the sequence dimension.
//
//easyscale:hotpath
func (m *MeanPool) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	shapeCheck(x.Rank() == 3, "MeanPool: want [B,L,D], got %v", shapeOf{x})
	m.b, m.l, m.d = x.Dim(0), x.Dim(1), x.Dim(2)
	ctx.Dev.ChargeFLOPs(float64(x.Size()), 1)
	y := ctx.newTensor(m.b, m.d) // zeroed: sequence positions accumulate
	inv := 1 / float32(m.l)
	for bi := 0; bi < m.b; bi++ {
		for li := 0; li < m.l; li++ {
			row := x.Data[(bi*m.l+li)*m.d : (bi*m.l+li+1)*m.d]
			out := y.Data[bi*m.d : (bi+1)*m.d]
			for j, v := range row {
				out[j] += v * inv
			}
		}
	}
	return y
}

// Backward spreads the gradient uniformly over the sequence.
//
//easyscale:hotpath
func (m *MeanPool) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(m.l > 0 && grad.Size() == m.b*m.d, "MeanPool backward without matching forward")
	dx := ctx.newTensorUninit(m.b, m.l, m.d)
	inv := 1 / float32(m.l)
	for bi := 0; bi < m.b; bi++ {
		g := grad.Data[bi*m.d : (bi+1)*m.d]
		for li := 0; li < m.l; li++ {
			out := dx.Data[(bi*m.l+li)*m.d : (bi*m.l+li+1)*m.d]
			for j, v := range g {
				out[j] = v * inv
			}
		}
	}
	return dx
}

// Params returns nil.
func (m *MeanPool) Params() []*Parameter { return nil }

// PatchEmbed splits an NCHW image into non-overlapping P×P patches and
// linearly projects each to D dimensions: [B,C,H,W] → [B, (H/P)(W/P), D].
// This is the Swin-style patch embedding.
type PatchEmbed struct {
	C, P, D int
	Proj    *Linear

	b, h, w int
}

// NewPatchEmbed constructs the patch embedding.
func NewPatchEmbed(c, p, d int, b *Builder) *PatchEmbed {
	return &PatchEmbed{C: c, P: p, D: d, Proj: NewLinear(c*p*p, d, true, b)}
}

// patchify rearranges [B,C,H,W] into [B·L, C·P·P] rows.
func (pe *PatchEmbed) patchify(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ph, pw := h/pe.P, w/pe.P
	out := ctx.newTensorUninit(b*ph*pw, c*pe.P*pe.P)
	row := 0
	for bi := 0; bi < b; bi++ {
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				k := 0
				for ci := 0; ci < c; ci++ {
					for dy := 0; dy < pe.P; dy++ {
						for dx := 0; dx < pe.P; dx++ {
							out.Data[row*c*pe.P*pe.P+k] = x.At(bi, ci, py*pe.P+dy, px*pe.P+dx)
							k++
						}
					}
				}
				row++
			}
		}
	}
	return out
}

// Forward patchifies and projects.
//
//easyscale:hotpath
func (pe *PatchEmbed) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if !(x.Rank() == 4 && x.Dim(1) == pe.C && x.Dim(2)%pe.P == 0 && x.Dim(3)%pe.P == 0) {
		panic(shapeErr("PatchEmbed: input %v incompatible with C=%d P=%d", shapeOf{x}, pe.C, pe.P))
	}
	pe.b, pe.h, pe.w = x.Dim(0), x.Dim(2), x.Dim(3)
	patches := pe.patchify(ctx, x)
	y := pe.Proj.Forward(ctx, patches)
	l := (pe.h / pe.P) * (pe.w / pe.P)
	return y.Reshape(pe.b, l, pe.D)
}

// Backward projects the gradient back and un-patchifies it.
//
//easyscale:hotpath
func (pe *PatchEmbed) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(pe.b > 0, "PatchEmbed backward without matching forward")
	l := (pe.h / pe.P) * (pe.w / pe.P)
	dpatches := pe.Proj.Backward(ctx, grad.Reshape(pe.b*l, pe.D))
	dx := ctx.newTensorUninit(pe.b, pe.C, pe.h, pe.w)
	ph, pw := pe.h/pe.P, pe.w/pe.P
	row := 0
	for bi := 0; bi < pe.b; bi++ {
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				k := 0
				for ci := 0; ci < pe.C; ci++ {
					for dy := 0; dy < pe.P; dy++ {
						for dx2 := 0; dx2 < pe.P; dx2++ {
							dx.Set(dpatches.At(row, k), bi, ci, py*pe.P+dy, px*pe.P+dx2)
							k++
						}
					}
				}
				row++
			}
		}
	}
	return dx
}

// Params returns the projection parameters.
func (pe *PatchEmbed) Params() []*Parameter { return pe.Proj.Params() }
