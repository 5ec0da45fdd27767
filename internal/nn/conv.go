package nn

import (
	"repro/internal/kernels"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer over NCHW activations. Its kernels are
// the vendor-optimized family: selection policy and per-architecture block
// sizes apply (the D2 problem), and the fixed-algo variant pays the
// efficiency penalty Figure 12 measures.
type Conv2D struct {
	CIn, COut        int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	W, B             *Parameter

	x    *tensor.Tensor
	dims kernels.ConvDims
	plan kernels.ConvPlan // laid out on first use; Backward reads the batch Forward bordered
}

// NewConv2D constructs a convolution layer from b, with Kaiming init drawn
// from b's init.
func NewConv2D(cin, cout, k, stride, pad int, bias bool, b *Builder) *Conv2D {
	c := &Conv2D{CIn: cin, COut: cout, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		W: b.Param("weight", cout, cin, k, k)}
	if b.init != nil {
		KaimingInit(c.W.Value, cin*k*k, b.init)
	}
	if bias {
		c.B = b.Param("bias", cout)
	}
	return c
}

func (c *Conv2D) convDims(x *tensor.Tensor) kernels.ConvDims {
	shapeCheck(x.Rank() == 4 && x.Dim(1) == c.CIn, "Conv2D: input %v incompatible with CIn=%d", shapeOf{x}, c.CIn)
	return kernels.ConvDims{
		Batch: x.Dim(0), CIn: c.CIn, H: x.Dim(2), W: x.Dim(3),
		COut: c.COut, KH: c.KH, KW: c.KW,
		StrideH: c.StrideH, StrideW: c.StrideW, PadH: c.PadH, PadW: c.PadW,
	}
}

func (c *Conv2D) flops(d kernels.ConvDims) float64 {
	return 2 * float64(d.Batch) * float64(d.COut) * float64(d.OutH()) * float64(d.OutW()) * float64(d.ColRows())
}

// Forward runs the convolution with the device-selected kernel.
//
//easyscale:hotpath
func (c *Conv2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	d := c.convDims(x)
	c.x, c.dims = x, d
	ctx.Dev.ChargeFLOPs(c.flops(d), ctx.Dev.ConvEfficiency())
	y := ctx.newTensorUninit(d.Batch, d.COut, d.OutH(), d.OutW())
	var bias []float32
	if c.B != nil {
		bias = c.B.Value.Data
	}
	c.plan.Forward(y.Data, x.Data, c.W.Value.Data, bias, d, ctx.Dev.KernelBlock())
	return y
}

// Backward computes all gradients with the same kernel selection as Forward.
//
//easyscale:hotpath
func (c *Conv2D) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	dx := ctx.newTensorUninit(c.dims.Batch, c.dims.CIn, c.dims.H, c.dims.W)
	c.backward(ctx, grad, dx.Data)
	return dx
}

// BackwardParams accumulates the weight and bias gradients of Backward, bit
// for bit, and skips the input gradient. The simulated device is charged the
// full backward either way, so no modeled time moves.
//
//easyscale:hotpath
func (c *Conv2D) BackwardParams(ctx *Context, grad *tensor.Tensor) { c.backward(ctx, grad, nil) }

// backward writes the input gradient into dx unless it is nil and adds the
// parameter gradients onto their accumulators.
//
//easyscale:hotpath
func (c *Conv2D) backward(ctx *Context, grad *tensor.Tensor, dx []float32) {
	shapeCheck(c.x != nil, "Conv2D backward without matching forward")
	d := c.dims
	ctx.Dev.ChargeFLOPs(2*c.flops(d), ctx.Dev.ConvEfficiency())
	dw := pool.GetUninit(c.W.Value.Size())
	var db []float32
	if c.B != nil {
		db = pool.GetUninit(d.COut)
	}
	c.plan.Backward(dx, dw, db, c.x.Data, c.W.Value.Data, grad.Data, d, ctx.Dev.KernelBlock())
	kernels.AddF32(c.W.Grad.Data, dw)
	pool.Put(dw)
	if db != nil {
		kernels.AddF32(c.B.Grad.Data, db)
		pool.Put(db)
	}
	c.x = nil
}

// Params returns weight (and bias when present).
func (c *Conv2D) Params() []*Parameter {
	if c.B == nil {
		return []*Parameter{c.W}
	}
	return []*Parameter{c.W, c.B}
}

// MaxPool2D is a max pooling layer with square window and equal stride.
type MaxPool2D struct {
	K, Stride int

	argmax  []int
	inShape [4]int
}

// NewMaxPool2D constructs a max pooling layer.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward keeps the per-window argmax for the backward pass.
//
//easyscale:hotpath
func (m *MaxPool2D) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	shapeCheck(x.Rank() == 4, "MaxPool2D: want NCHW input, got %v", shapeOf{x})
	b, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h-m.K)/m.Stride + 1
	ow := (w-m.K)/m.Stride + 1
	if !(oh > 0 && ow > 0) {
		panic(shapeErr("MaxPool2D: window %d too large for %v", m.K, shapeOf{x}))
	}
	ctx.Dev.ChargeFLOPs(float64(b*ch*oh*ow*m.K*m.K), 1)
	m.inShape = [4]int(x.Shape())
	y := ctx.newTensorUninit(b, ch, oh, ow)
	m.argmax = resize(m.argmax, y.Size())
	oi := 0
	for n := 0; n < b; n++ {
		for c := 0; c < ch; c++ {
			plane := x.Data[(n*ch+c)*h*w : (n*ch+c+1)*h*w]
			for py := 0; py < oh; py++ {
				for px := 0; px < ow; px++ {
					bestIdx := (py*m.Stride)*w + px*m.Stride
					best := plane[bestIdx]
					for ky := 0; ky < m.K; ky++ {
						for kx := 0; kx < m.K; kx++ {
							idx := (py*m.Stride+ky)*w + px*m.Stride + kx
							if plane[idx] > best {
								best, bestIdx = plane[idx], idx
							}
						}
					}
					y.Data[oi] = best
					m.argmax[oi] = (n*ch+c)*h*w + bestIdx
					oi++
				}
			}
		}
	}
	return y
}

// Backward scatters gradients to the cached argmax positions.
//
//easyscale:hotpath
func (m *MaxPool2D) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(len(m.argmax) == grad.Size(), "MaxPool2D backward without matching forward")
	dx := ctx.newTensor(m.inShape[:]...) // zeroed: scatter-add target
	for i, g := range grad.Data {
		dx.Data[m.argmax[i]] += g
	}
	return dx
}

// Params returns nil.
func (m *MaxPool2D) Params() []*Parameter { return nil }

// GlobalAvgPool averages each channel plane to a single value:
// [B,C,H,W] → [B,C].
type GlobalAvgPool struct {
	inShape [4]int
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward averages over the spatial dimensions in fixed order.
//
//easyscale:hotpath
func (g *GlobalAvgPool) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	shapeCheck(x.Rank() == 4, "GlobalAvgPool: want NCHW input, got %v", shapeOf{x})
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	ctx.Dev.ChargeFLOPs(float64(x.Size()), 1)
	g.inShape = [4]int(x.Shape())
	y := ctx.newTensorUninit(b, c)
	hw := h * w
	inv := 1 / float32(hw)
	for i := 0; i < b*c; i++ {
		plane := x.Data[i*hw : (i+1)*hw]
		y.Data[i] = kernels.SumBlocked(plane, ctx.Dev.KernelBlock()) * inv
	}
	return y
}

// Backward spreads the gradient uniformly over each plane.
//
//easyscale:hotpath
func (g *GlobalAvgPool) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	shapeCheck(grad.Size() > 0 && grad.Size() == g.inShape[0]*g.inShape[1], "GlobalAvgPool backward without matching forward")
	dx := ctx.newTensorUninit(g.inShape[:]...)
	hw := g.inShape[2] * g.inShape[3]
	inv := 1 / float32(hw)
	for i, gv := range grad.Data {
		v := gv * inv
		plane := dx.Data[i*hw : (i+1)*hw]
		for j := range plane {
			plane[j] = v
		}
	}
	return dx
}

// Params returns nil.
func (g *GlobalAvgPool) Params() []*Parameter { return nil }
