package nn

import (
	"repro/internal/kernels"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// Linear is a fully connected layer: y = x·Wᵀ + b with W of shape [out, in]
// (PyTorch convention). Inputs may be rank-2 [B, in] or higher rank
// [..., in]; leading dimensions are folded into the batch.
type Linear struct {
	In, Out int
	W, B    *Parameter // B may be nil when bias is disabled

	x *tensor.Tensor // cached input (flattened to [rows, in])
}

// NewLinear constructs a Linear layer from b, with Kaiming-initialized
// weights drawn from b's init (bias zero). bias toggles the additive bias
// term.
func NewLinear(in, out int, bias bool, b *Builder) *Linear {
	l := &Linear{In: in, Out: out, W: b.Param("weight", out, in)}
	if b.init != nil {
		KaimingInit(l.W.Value, in, b.init)
	}
	if bias {
		l.B = b.Param("bias", out)
	}
	return l
}

func (l *Linear) fold(x *tensor.Tensor) *tensor.Tensor {
	shapeCheck(x.Size()%l.In == 0, "Linear(%d→%d): input %v not divisible by in features", l.In, l.Out, shapeOf{x})
	return x.Reshape(-1, l.In)
}

// withLastDim returns shape with its last dimension replaced by d, built in
// buf — the caller's stack — so unfolding a layer's output costs no shape
// slice; ranks beyond buf fall back to append's allocation.
func withLastDim(buf *[4]int, shape []int, d int) []int {
	return append(append(buf[:0], shape[:len(shape)-1]...), d)
}

// Forward computes y = x·Wᵀ + b, preserving leading dimensions.
//
//easyscale:hotpath
func (l *Linear) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	orig := x.Shape()
	x2 := l.fold(x)
	l.x = x2
	rows := x2.Dim(0)
	y := ctx.newTensorUninit(rows, l.Out)
	// y[rows,out] = x[rows,in] · Wᵀ[in,out]
	gemmABT(ctx, y.Data, x2.Data, l.W.Value.Data, rows, l.In, l.Out)
	if l.B != nil {
		for r := 0; r < rows; r++ {
			kernels.AddF32(y.Data[r*l.Out:(r+1)*l.Out], l.B.Value.Data)
		}
	}
	var buf [4]int
	return y.Reshape(withLastDim(&buf, orig, l.Out)...)
}

// Backward accumulates dW = dyᵀ·x and db = Σ_rows dy, returning dx = dy·W.
//
//easyscale:hotpath
func (l *Linear) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	orig := grad.Shape()
	g2 := grad.Reshape(-1, l.Out)
	rows := g2.Dim(0)
	shapeCheck(l.x != nil && l.x.Dim(0) == rows, "Linear backward without matching forward")

	// dW[out,in] = dyᵀ[out,rows] · x[rows,in]
	dw := pool.GetUninit(l.Out * l.In)
	gemmATB(ctx, dw, g2.Data, l.x.Data, l.Out, rows, l.In)
	kernels.AddF32(l.W.Grad.Data, dw)
	pool.Put(dw)

	if l.B != nil {
		db := pool.GetUninit(l.Out)
		if ctx.Dev.DeterministicKernels() {
			kernels.ColSumBlocked(db, g2.Data, rows, l.Out, ctx.Dev.KernelBlock())
		} else {
			kernels.ColSumAtomic(db, g2.Data, rows, l.Out, ctx.Dev.AtomicWorkers())
		}
		kernels.AddF32(l.B.Grad.Data, db)
		pool.Put(db)
	}

	// dx[rows,in] = dy[rows,out] · W[out,in]
	dx := ctx.newTensorUninit(rows, l.In)
	gemm(ctx, dx.Data, g2.Data, l.W.Value.Data, rows, l.Out, l.In)
	l.x = nil // activation freed at mini-batch boundary
	var buf [4]int
	return dx.Reshape(withLastDim(&buf, orig, l.In)...)
}

// Params returns weight (and bias when present).
func (l *Linear) Params() []*Parameter {
	if l.B == nil {
		return []*Parameter{l.W}
	}
	return []*Parameter{l.W, l.B}
}
