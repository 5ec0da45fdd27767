package nn

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over (N, H, W).
//
// It owns the two kinds of implicit framework state the paper calls out:
// batch statistics are computed by device-policy reductions (so their bitwise
// value depends on kernel selection), and the running statistics used at eval
// time are mutable state that must be checkpointed (StateTensors) for
// training to be resumable deterministically.
type BatchNorm2D struct {
	C        int
	Eps      float32
	Momentum float32

	Gamma, Beta             *Parameter
	RunningMean, RunningVar *tensor.Tensor

	xhat   *tensor.Tensor // [C, N·H·W]: channel-major, one contiguous row per channel
	invStd []float32
}

// NewBatchNorm2D constructs a BatchNorm layer from b with γ=1, β=0,
// PyTorch-default eps and momentum, and running statistics 0 and 1.
func NewBatchNorm2D(c int, b *Builder) *BatchNorm2D {
	bn := &BatchNorm2D{C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma: b.ones(b.Param("gamma", c)), Beta: b.Param("beta", c),
		RunningMean: b.state(c), RunningVar: b.state(c)}
	bn.RunningVar.Fill(1)
	return bn
}

// Forward normalizes x; in training mode it also updates running statistics.
//
//easyscale:hotpath
func (bn *BatchNorm2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if !(x.Rank() == 4 && x.Dim(1) == bn.C) {
		panic(shapeErr("BatchNorm2D: input %v incompatible with C=%d", shapeOf{x}, bn.C))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	n := b * hw
	ctx.Dev.ChargeFLOPs(6*float64(x.Size()), 1)

	y := ctx.newTensorUninit(x.Shape()...)
	if ctx.Training {
		bn.xhat = ctx.newTensorUninit(c, n)
		bn.invStd = resize(bn.invStd, c)
	}
	for ci := 0; ci < c; ci++ {
		var mean, variance float32
		var xh []float32
		if ctx.Training {
			// Gather the channel into its contiguous row of x̂ so the
			// reduction kernel's blocking applies exactly as on-device, then
			// normalize it in place.
			xh = bn.xhat.Data[ci*n : (ci+1)*n]
			for bi := 0; bi < b; bi++ {
				copy(xh[bi*hw:(bi+1)*hw], x.Data[(bi*c+ci)*hw:(bi*c+ci+1)*hw])
			}
			mean, variance = reduceMeanVar(ctx, xh)
			bn.RunningMean.Data[ci] = (1-bn.Momentum)*bn.RunningMean.Data[ci] + bn.Momentum*mean
			bn.RunningVar.Data[ci] = (1-bn.Momentum)*bn.RunningVar.Data[ci] + bn.Momentum*variance
		} else {
			mean, variance = bn.RunningMean.Data[ci], bn.RunningVar.Data[ci]
		}
		inv := float32(1 / math.Sqrt(float64(variance)+float64(bn.Eps)))
		g, be := bn.Gamma.Value.Data[ci], bn.Beta.Value.Data[ci]
		if ctx.Training {
			bn.invStd[ci] = inv
			kernels.NormalizeF32(xh, xh, mean, inv)
		}
		for bi := 0; bi < b; bi++ {
			off := (bi*c + ci) * hw
			yrow := y.Data[off : off+hw]
			if ctx.Training {
				kernels.ScaleShiftF32(yrow, xh[bi*hw:(bi+1)*hw], g, be)
			} else {
				kernels.NormalizeF32(yrow, x.Data[off:off+hw], mean, inv)
				kernels.ScaleShiftF32(yrow, yrow, g, be)
			}
		}
	}
	return y
}

// Backward implements the full batch-norm gradient.
//
//easyscale:hotpath
func (bn *BatchNorm2D) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(bn.xhat != nil && bn.xhat.Size() == grad.Size() && bn.xhat.Dim(0) == grad.Dim(1),
		"BatchNorm2D backward without matching forward")
	b, c := grad.Dim(0), grad.Dim(1)
	hw := grad.Dim(2) * grad.Dim(3)
	n := b * hw
	ctx.Dev.ChargeFLOPs(10*float64(grad.Size()), 1)
	dx := ctx.newTensorUninit(grad.Shape()...)
	sdy := pool.GetUninit(n)
	for ci := 0; ci < c; ci++ {
		for bi := 0; bi < b; bi++ {
			off := (bi*c + ci) * hw
			copy(sdy[bi*hw:(bi+1)*hw], grad.Data[off:off+hw])
		}
		xh := bn.xhat.Data[ci*n : (ci+1)*n]
		sumDy, sumDyXh := reduceSumDot(ctx, sdy, xh)
		bn.Beta.Grad.Data[ci] += sumDy
		bn.Gamma.Grad.Data[ci] += sumDyXh
		g := bn.Gamma.Value.Data[ci]
		inv := bn.invStd[ci]
		scale := g * inv / float32(n)
		for bi := 0; bi < b; bi++ {
			off := (bi*c + ci) * hw
			kernels.NormBackwardF32(dx.Data[off:off+hw], sdy[bi*hw:(bi+1)*hw], xh[bi*hw:(bi+1)*hw],
				float32(n), sumDy, sumDyXh, scale)
		}
	}
	pool.Put(sdy)
	bn.xhat = nil
	return dx
}

// Params returns γ and β.
func (bn *BatchNorm2D) Params() []*Parameter { return []*Parameter{bn.Gamma, bn.Beta} }

// StateTensors exposes the running statistics for checkpointing.
func (bn *BatchNorm2D) StateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{bn.RunningMean, bn.RunningVar}
}

// LayerNorm normalizes the last dimension of its input, as used by the
// transformer workloads.
type LayerNorm struct {
	D   int
	Eps float32

	Gamma, Beta *Parameter

	xhat   *tensor.Tensor
	invStd []float32
}

// NewLayerNorm constructs a LayerNorm over vectors of size d from b, with
// γ=1 and β=0.
func NewLayerNorm(d int, b *Builder) *LayerNorm {
	return &LayerNorm{D: d, Eps: 1e-5, Gamma: b.ones(b.Param("gamma", d)), Beta: b.Param("beta", d)}
}

// Forward normalizes each trailing-dimension vector.
//
//easyscale:hotpath
func (ln *LayerNorm) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	if x.Size()%ln.D != 0 {
		panic(shapeErr("LayerNorm: input %v not divisible by D=%d", shapeOf{x}, ln.D))
	}
	rows := x.Size() / ln.D
	ctx.Dev.ChargeFLOPs(6*float64(x.Size()), 1)
	y := ctx.newTensorUninit(x.Shape()...)
	ln.xhat = ctx.newTensorUninit(x.Shape()...)
	ln.invStd = resize(ln.invStd, rows)
	kb := ctx.Dev.KernelBlock()
	for r := 0; r < rows; r++ {
		row := x.Data[r*ln.D : (r+1)*ln.D]
		mean, variance := kernels.MeanVar(row, kb)
		inv := float32(1 / math.Sqrt(float64(variance)+float64(ln.Eps)))
		ln.invStd[r] = inv
		xhrow := ln.xhat.Data[r*ln.D : (r+1)*ln.D]
		yrow := y.Data[r*ln.D : (r+1)*ln.D]
		kernels.NormalizeF32(xhrow, row, mean, inv)
		// γ·xh + β with vector γ, β: product then shift, the scalar order.
		kernels.MulIntoF32(yrow, ln.Gamma.Value.Data, xhrow)
		kernels.AddF32(yrow, ln.Beta.Value.Data)
	}
	return y
}

// Backward implements the layer-norm gradient.
//
//easyscale:hotpath
func (ln *LayerNorm) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(ln.xhat != nil && ln.xhat.Size() == grad.Size(), "LayerNorm backward without matching forward")
	rows := grad.Size() / ln.D
	ctx.Dev.ChargeFLOPs(10*float64(grad.Size()), 1)
	dx := ctx.newTensorUninit(grad.Shape()...)
	kb := ctx.Dev.KernelBlock()
	dyg := pool.GetUninit(ln.D)
	gxh := pool.GetUninit(ln.D)
	for r := 0; r < rows; r++ {
		off := r * ln.D
		grow := grad.Data[off : off+ln.D]
		xhrow := ln.xhat.Data[off : off+ln.D]
		// The γ gradient adds g·xh per element, rows ascending,
		// product-then-add: the scalar order.
		kernels.MulIntoF32(gxh, grow, xhrow)
		kernels.AddF32(ln.Gamma.Grad.Data, gxh)
		kernels.AddF32(ln.Beta.Grad.Data, grow)
		kernels.MulIntoF32(dyg, grow, ln.Gamma.Value.Data)
		sumDyg, sumDygXh := kernels.SumDotBlocked(dyg, xhrow, kb)
		meanDyg, meanDygXh := sumDyg/float32(ln.D), sumDygXh/float32(ln.D)
		inv := ln.invStd[r]
		// inv·(dyg − mean − xh·mean) is the c0=1 case of the shared map;
		// 1·g is bitwise-exact, so the scalar expression is unchanged.
		kernels.NormBackwardF32(dx.Data[off:off+ln.D], dyg, xhrow, 1, meanDyg, meanDygXh, inv)
	}
	pool.Put(dyg)
	pool.Put(gxh)
	ln.xhat = nil
	return dx
}

// Params returns γ and β.
func (ln *LayerNorm) Params() []*Parameter { return []*Parameter{ln.Gamma, ln.Beta} }
