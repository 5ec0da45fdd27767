package nn

import (
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// ReLU is the rectified linear activation. Instead of a boolean mask it
// caches the forward input (the GELU pattern): the backward gate "did the
// forward pass this element" is exactly x > 0, and keeping it as float data
// lets both directions run on the vectorized kernels primitives.
type ReLU struct {
	x *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative elements (NaN and -0 map to +0, like the scalar
// branch `v > 0 ? v : 0`).
//
//easyscale:hotpath
func (r *ReLU) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	ctx.Dev.ChargeFLOPs(float64(x.Size()), 1)
	r.x = x
	y := ctx.newTensorUninit(x.Shape()...)
	kernels.MaxZeroF32(y.Data, x.Data)
	return y
}

// Backward gates the gradient by the cached forward input.
//
//easyscale:hotpath
func (r *ReLU) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(r.x != nil && r.x.Size() == grad.Size(), "ReLU backward without matching forward")
	g := ctx.clone(grad)
	kernels.MaxZeroGradF32(g.Data, r.x.Data)
	r.x = nil
	return g
}

// Params returns nil.
func (r *ReLU) Params() []*Parameter { return nil }

// GELU is the Gaussian error linear unit (tanh approximation), used by the
// transformer workloads.
type GELU struct {
	x *tensor.Tensor
	// tanh holds the forward pass's tanh values for Backward, which needs the
	// same ones (kernels.GELUForwardF32). Capacity is reused across steps,
	// like Dropout's mask.
	tanh []float64
}

// NewGELU builds a GELU layer.
func NewGELU() *GELU { return &GELU{} }

// Forward computes 0.5x(1+tanh(c(x+0.044715x³))).
//
//easyscale:hotpath
func (g *GELU) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	ctx.Dev.ChargeFLOPs(8*float64(x.Size()), 1)
	g.x = x
	g.tanh = resize(g.tanh, x.Size())
	y := ctx.newTensorUninit(x.Shape()...)
	kernels.GELUForwardF32(y.Data, g.tanh, x.Data)
	return y
}

// Backward differentiates the tanh approximation.
//
//easyscale:hotpath
func (g *GELU) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(g.x != nil && g.x.Size() == grad.Size(), "GELU backward without matching forward")
	out := ctx.clone(grad)
	kernels.GELUBackwardF32(out.Data, g.x.Data, g.tanh)
	g.x = nil
	return out
}

// Params returns nil.
func (g *GELU) Params() []*Parameter { return nil }

// Dropout zeroes activations with probability P during training and scales
// the survivors by 1/(1-P). The mask is drawn from the context's framework
// RNG — the implicit state the paper records in EST contexts for D0.
type Dropout struct {
	P    float64
	mask []float32
}

// NewDropout builds a Dropout layer with drop probability p.
func NewDropout(p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{P: p}
}

// Forward applies the mask in training mode, identity in eval mode.
//
//easyscale:hotpath
func (d *Dropout) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if !ctx.Training || d.P == 0 {
		d.mask = nil
		return x
	}
	ctx.Dev.ChargeFLOPs(float64(x.Size()), 1)
	scale := float32(1 / (1 - d.P))
	d.mask = resize(d.mask, x.Size())
	y := ctx.clone(x)
	for i := range y.Data {
		if ctx.RNG.Float64() < d.P {
			d.mask[i] = 0
			y.Data[i] = 0
		} else {
			d.mask[i] = scale
			y.Data[i] *= scale
		}
	}
	return y
}

// Backward applies the cached mask; identity when Forward was a no-op.
//
//easyscale:hotpath
func (d *Dropout) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	shapeCheck(len(d.mask) == grad.Size(), "Dropout backward without matching forward")
	g := ctx.clone(grad)
	kernels.MulF32(g.Data, d.mask)
	return g
}

// Params returns nil.
func (d *Dropout) Params() []*Parameter { return nil }
