// Package nn implements the neural-network layers, containers, and losses of
// the EasyScale training stack.
//
// Layers follow the explicit forward/backward module design: Forward caches
// whatever activations Backward needs, and Backward both returns the input
// gradient and accumulates parameter gradients. The caches correspond to the
// paper's "temporal tensors and activations" — created in the forward pass,
// destroyed after gradient generation — which is why EasyScale can constrain
// an EST's time slice to one mini-batch and avoid swapping them.
//
// Every reduction and GEMM goes through the device handle in the Context, so
// the accumulation order (and hence bitwise determinism across GPU types and
// kernel-selection policies) is controlled in exactly one place.
package nn

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Context carries the per-step execution environment through a layer stack.
type Context struct {
	Dev      *device.Device
	RNG      *rng.Stream // framework RNG: dropout masks, any stochastic op
	Training bool
	// Scratch, when non-nil, supplies pooled buffers for activations and
	// gradients whose lifetime ends at the surrounding step boundary (the
	// owner calls ReleaseAll). Buffer reuse cannot perturb numerics — every
	// layer zeroes or fully overwrites its scratch — so a nil Scratch (plain
	// GC allocation, used by evaluation) is bitwise-equivalent.
	Scratch *pool.Scope
}

// resize returns buf at length n, reusing its storage when the capacity
// allows: a buffer a layer keeps across steps allocates only on a step
// larger than every one before it. Contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// newTensor returns a zero-filled step-scoped tensor.
func (c *Context) newTensor(shape ...int) *tensor.Tensor {
	return tensor.NewScoped(c.Scratch, shape...)
}

// newTensorUninit returns a step-scoped tensor with arbitrary contents, for
// outputs every element of which is written before being read.
func (c *Context) newTensorUninit(shape ...int) *tensor.Tensor {
	return tensor.NewScopedUninit(c.Scratch, shape...)
}

// clone returns a step-scoped deep copy of t.
func (c *Context) clone(t *tensor.Tensor) *tensor.Tensor {
	return t.CloneScoped(c.Scratch)
}

// add returns a + b in a fresh step-scoped tensor of a's shape, in one
// pass; it writes neither operand. 1·b is b exactly, so a + 1·b is a + b.
func (c *Context) add(a, b *tensor.Tensor) *tensor.Tensor {
	sum := c.newTensorUninit(a.Shape()...)
	kernels.AddScaledF32(sum.Data, a.Data, b.Data, 1)
	return sum
}

// Parameter is a trainable tensor with its gradient accumulator.
type Parameter struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Sizes counts what a net's build takes from its Builder: parameters and
// their floats, state tensors (BatchNorm's running statistics) and theirs.
type Sizes struct{ Params, ParamFloats, States, StateFloats int }

// Builder is where a net's layers take their parameters and state, in
// construction order: values and state from one block, gradients from
// another, Parameter structs from one array, each sized by the net's Sizes
// (a zero Sizes grows them in chunks). Each constructor draws its weights
// from init itself, in call order; a nil init leaves them zero (γ one). A
// builder given like, another build's parameters, takes parameter i's value
// from like[i] and carves only gradients and state; its init must be nil.
type Builder struct {
	init          *rng.Stream
	like          []*Parameter
	values, grads tensor.Carver
	structs       []Parameter
	params        []*Parameter
	built         Sizes
}

// NewBuilder returns a builder whose blocks hold size.
func NewBuilder(init *rng.Stream, like []*Parameter, size Sizes) *Builder {
	floats, tensors := size.ParamFloats+size.StateFloats, size.Params+size.States
	if like != nil {
		floats, tensors = size.StateFloats, size.States
	}
	return &Builder{init: init, like: like, values: tensor.NewCarver(floats, tensors), grads: tensor.NewCarver(size.ParamFloats, size.Params),
		structs: make([]Parameter, size.Params), params: make([]*Parameter, 0, size.Params)}
}

// Param returns the builder's next parameter, of the given shape, with a zero
// gradient. Its value is zero, or like's.
func (b *Builder) Param(name string, shape ...int) *Parameter {
	if len(b.structs) == 0 {
		b.structs = make([]Parameter, 16)
	}
	p := &b.structs[0]
	p.Name, p.Grad = name, b.grads.Next(shape...)
	if b.like == nil {
		p.Value = b.values.Next(shape...)
	} else if p.Value = b.like[len(b.params)].Value; p.Value.Size() != p.Grad.Size() {
		panic("nn: a shared parameter does not fit the net built on it")
	}
	b.structs, b.params = b.structs[1:], append(b.params, p)
	b.built.Params, b.built.ParamFloats = b.built.Params+1, b.built.ParamFloats+p.Grad.Size()
	return p
}

// state returns the builder's next state tensor, zero-filled.
func (b *Builder) state(shape ...int) *tensor.Tensor {
	t := b.values.Next(shape...)
	b.built.States, b.built.StateFloats = b.built.States+1, b.built.StateFloats+t.Size()
	return t
}

// ones sets p's value to one, where a normalization's γ starts, unless it is
// like's.
func (b *Builder) ones(p *Parameter) *Parameter {
	if b.like == nil {
		p.Value.Fill(1)
	}
	return p
}

// Params returns the parameters built so far in construction order: for a
// whole net, its Params().
func (b *Builder) Params() []*Parameter { return b.params }

// Sizes returns what the builder has handed out, the size a later build of
// the same net needs.
func (b *Builder) Sizes() Sizes { return b.built }

// ZeroGrad clears the gradient accumulator.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable module.
type Layer interface {
	// Forward computes the layer output and caches what Backward needs.
	Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the output gradient, accumulates parameter
	// gradients, and returns the input gradient.
	Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Parameter
}

// ParamsBackward is implemented by layers whose backward can skip the input
// gradient: BackwardParams accumulates the parameter gradients Backward
// would, bit for bit, and returns nothing.
type ParamsBackward interface {
	BackwardParams(ctx *Context, grad *tensor.Tensor)
}

// BackwardParams runs l's backward for its parameter gradients only, for a
// caller that discards the input gradient, as a training step does for the
// network's input. A layer without a ParamsBackward form runs Backward.
//
//easyscale:hotpath
func BackwardParams(l Layer, ctx *Context, grad *tensor.Tensor) {
	if pb, ok := l.(ParamsBackward); ok {
		pb.BackwardParams(ctx, grad)
		return
	}
	l.Backward(ctx, grad)
}

// Stateful is implemented by layers with non-trainable state that must be
// checkpointed for determinism — the paper's "implicit framework states",
// e.g. BatchNorm running statistics.
type Stateful interface {
	// StateTensors returns the mutable state buffers in a stable order.
	StateTensors() []*tensor.Tensor
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs the layers in order.
//
//easyscale:hotpath
func (s *Sequential) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(ctx, x)
	}
	return x
}

// Backward runs the layers in reverse order.
//
//easyscale:hotpath
func (s *Sequential) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(ctx, grad)
	}
	return grad
}

// BackwardParams is Backward without the first layer's input gradient.
//
//easyscale:hotpath
func (s *Sequential) BackwardParams(ctx *Context, grad *tensor.Tensor) {
	for i := len(s.Layers) - 1; i > 0; i-- {
		grad = s.Layers[i].Backward(ctx, grad)
	}
	if len(s.Layers) > 0 {
		BackwardParams(s.Layers[0], ctx, grad)
	}
}

// Params concatenates the parameters of all layers in order.
func (s *Sequential) Params() []*Parameter {
	var out []*Parameter
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// StateTensors concatenates the stateful buffers of all layers in order.
func (s *Sequential) StateTensors() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range s.Layers {
		if st, ok := l.(Stateful); ok {
			out = append(out, st.StateTensors()...)
		}
	}
	return out
}

// Flatten reshapes [B, ...] to [B, prod(...)].
type Flatten struct {
	inShape []int
}

// NewFlatten builds a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the leading dimension.
//
//easyscale:hotpath
func (f *Flatten) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	f.inShape = resize(f.inShape, x.Rank())
	copy(f.inShape, x.Shape())
	return x.Reshape(x.Dim(0), -1)
}

// Backward restores the cached input shape.
//
//easyscale:hotpath
func (f *Flatten) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params returns nil.
func (f *Flatten) Params() []*Parameter { return nil }

// KaimingInit fills t with Kaiming-normal values for the given fan-in, drawn
// from the provided stream. Initialization order is fixed by the flat index,
// so identical seeds give bitwise identical parameters.
func KaimingInit(t *tensor.Tensor, fanIn int, s *rng.Stream) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = s.NormFloat32() * std
	}
}

// reduceSum routes a reduction through the device policy: blocked fixed-order
// when deterministic kernels are enforced, atomics otherwise.
func reduceSum(ctx *Context, xs []float32) float32 {
	if ctx.Dev.DeterministicKernels() {
		return kernels.SumBlocked(xs, ctx.Dev.KernelBlock())
	}
	return kernels.SumAtomic(xs, ctx.Dev.AtomicWorkers())
}

// reduceSumDot returns (Σa, Σa⊙b) through the device policy: one fused
// blocked pass when deterministic kernels are enforced, atomic sums of a and
// of the products otherwise.
func reduceSumDot(ctx *Context, a, b []float32) (sum, dot float32) {
	if ctx.Dev.DeterministicKernels() {
		return kernels.SumDotBlocked(a, b, ctx.Dev.KernelBlock())
	}
	ab := pool.GetUninit(len(a))
	kernels.MulIntoF32(ab, a, b)
	sum, dot = kernels.SumAtomic(a, ctx.Dev.AtomicWorkers()), kernels.SumAtomic(ab, ctx.Dev.AtomicWorkers())
	pool.Put(ab)
	return sum, dot
}

// reduceMeanVar routes BatchNorm statistics through the device policy.
func reduceMeanVar(ctx *Context, xs []float32) (mean, variance float32) {
	if ctx.Dev.DeterministicKernels() {
		return kernels.MeanVar(xs, ctx.Dev.KernelBlock())
	}
	return kernels.MeanVarAtomic(xs, ctx.Dev.AtomicWorkers())
}

// gemm routes C = A·B through the device policy: fixed-kc blocked kernels
// when deterministic, split-K atomics otherwise. Charges simulated time.
func gemm(ctx *Context, dst, a, b []float32, m, k, n int) {
	ctx.Dev.ChargeFLOPs(2*float64(m)*float64(k)*float64(n), ctx.Dev.GemmEfficiency())
	if ctx.Dev.DeterministicKernels() {
		kernels.MatMul(dst, a, b, m, k, n, ctx.Dev.KernelBlock())
		return
	}
	kernels.MatMulAtomicSplitK(dst, a, b, m, k, n, ctx.Dev.AtomicWorkers())
}

func gemmATB(ctx *Context, dst, a, b []float32, m, k, n int) {
	ctx.Dev.ChargeFLOPs(2*float64(m)*float64(k)*float64(n), ctx.Dev.GemmEfficiency())
	kernels.MatMulATB(dst, a, b, m, k, n, ctx.Dev.KernelBlock())
}

func gemmABT(ctx *Context, dst, a, b []float32, m, k, n int) {
	ctx.Dev.ChargeFLOPs(2*float64(m)*float64(k)*float64(n), ctx.Dev.GemmEfficiency())
	kernels.MatMulABT(dst, a, b, m, k, n, ctx.Dev.KernelBlock())
}

func shapeCheck(cond bool, format string, args ...any) {
	if !cond {
		panic(shapeErr(format, args...))
	}
}

// shapeErr formats a failed shape check. A check whose message carries an
// int calls it in `if !cond { panic(shapeErr(...)) }` instead: an int boxed
// into shapeCheck's ...any allocates on every call, passing checks included.
func shapeErr(format string, args ...any) string { return "nn: " + fmt.Sprintf(format, args...) }

// shapeOf is a tensor's shape as a shapeCheck argument. It is pointer-shaped,
// so it goes into the call's ...any as it is and is formatted only if the
// check fails; x.Shape() there allocates a boxed slice header on every call
// of every layer, checks that pass included.
type shapeOf struct{ t *tensor.Tensor }

func (s shapeOf) String() string { return fmt.Sprint(s.t.Shape()) }
