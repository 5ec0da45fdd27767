package nn

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func detCtx() *Context {
	return &Context{
		Dev:      device.New(device.V100, device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic}),
		RNG:      rng.New(1),
		Training: true,
	}
}

// checkLayerGrads verifies Backward against central finite differences of the
// scalar loss L = Σ forward(x) ⊙ g.
func checkLayerGrads(t *testing.T, layer Layer, x *tensor.Tensor, eps, tol float64) {
	t.Helper()
	ctx := detCtx()
	rngState := ctx.RNG.State()

	g := tensor.New(layer.Forward(ctx, x).Shape()...)
	s := rng.New(99)
	for i := range g.Data {
		g.Data[i] = s.NormFloat32()
	}

	loss := func() float64 {
		ctx.RNG.SetState(rngState) // identical dropout masks etc. per probe
		y := layer.Forward(ctx, x)
		var l float64
		for i := range y.Data {
			l += float64(y.Data[i]) * float64(g.Data[i])
		}
		return l
	}

	// analytic gradients
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	ctx.RNG.SetState(rngState)
	layer.Forward(ctx, x)
	dx := layer.Backward(ctx, g)

	check := func(buf []float32, grad []float32, name string) {
		t.Helper()
		idxs := []int{0, len(buf) / 3, len(buf) / 2, len(buf) - 1}
		for _, i := range idxs {
			orig := buf[i]
			buf[i] = orig + float32(eps)
			lp := loss()
			buf[i] = orig - float32(eps)
			lm := loss()
			buf[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(grad[i])) > tol*(math.Abs(num)+1) {
				t.Fatalf("%s grad[%d] = %v, numerical %v", name, i, grad[i], num)
			}
		}
	}
	check(x.Data, dx.Data, "input")
	for _, p := range layer.Params() {
		check(p.Value.Data, p.Grad.Data, "param "+p.Name)
	}
}

func randTensor(seed uint64, shape ...int) *tensor.Tensor {
	s := rng.New(seed)
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = s.NormFloat32()
	}
	return x
}

func TestLinearGradients(t *testing.T) {
	l := NewLinear(7, 5, true, bld(rng.New(2)))
	checkLayerGrads(t, l, randTensor(3, 4, 7), 1e-2, 2e-2)
}

func TestLinearNoBiasGradients(t *testing.T) {
	l := NewLinear(4, 3, false, bld(rng.New(2)))
	checkLayerGrads(t, l, randTensor(4, 2, 4), 1e-2, 2e-2)
}

func TestConv2DGradients(t *testing.T) {
	c := NewConv2D(2, 3, 3, 1, 1, true, bld(rng.New(5)))
	checkLayerGrads(t, c, randTensor(6, 2, 2, 5, 5), 1e-2, 3e-2)
}

func TestReLUGradients(t *testing.T) {
	// keep inputs away from the kink
	x := randTensor(7, 3, 8)
	for i := range x.Data {
		if x.Data[i] > -0.05 && x.Data[i] < 0.05 {
			x.Data[i] = 0.5
		}
	}
	checkLayerGrads(t, NewReLU(), x, 1e-3, 2e-2)
}

func TestGELUGradients(t *testing.T) {
	checkLayerGrads(t, NewGELU(), randTensor(10, 3, 7), 1e-2, 2e-2)
}

func TestDropoutGradients(t *testing.T) {
	checkLayerGrads(t, NewDropout(0.3), randTensor(11, 4, 6), 1e-3, 2e-2)
}

func TestBatchNorm2DGradients(t *testing.T) {
	checkLayerGrads(t, NewBatchNorm2D(3, bld(nil)), randTensor(12, 4, 3, 3, 3), 1e-2, 5e-2)
}

func TestLayerNormGradients(t *testing.T) {
	checkLayerGrads(t, NewLayerNorm(6, bld(nil)), randTensor(13, 5, 6), 1e-2, 5e-2)
}

func TestMaxPoolGradients(t *testing.T) {
	checkLayerGrads(t, NewMaxPool2D(2, 2), randTensor(14, 2, 2, 4, 4), 1e-3, 2e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	checkLayerGrads(t, NewGlobalAvgPool(), randTensor(15, 2, 3, 4, 4), 1e-2, 2e-2)
}

func TestAttentionGradients(t *testing.T) {
	a := NewMultiHeadAttention(8, 2, bld(rng.New(16)))
	checkLayerGrads(t, a, randTensor(17, 2, 4, 8), 1e-2, 6e-2)
}

func TestSequentialGradients(t *testing.T) {
	init := bld(rng.New(18))
	net := NewSequential(
		NewLinear(6, 8, true, init),
		NewReLU(),
		NewLinear(8, 4, true, init),
		NewGELU(),
	)
	x := randTensor(19, 3, 6)
	for i := range x.Data { // keep ReLU away from kinks
		if x.Data[i] > -0.05 && x.Data[i] < 0.05 {
			x.Data[i] = 0.3
		}
	}
	checkLayerGrads(t, net, x, 1e-2, 3e-2)
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	ctx := detCtx()
	x := randTensor(20, 2, 3, 4)
	y := f.Forward(ctx, x)
	if y.Rank() != 2 || y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("Flatten forward shape %v", y.Shape())
	}
	g := f.Backward(ctx, y)
	if g.Rank() != 3 || g.Dim(2) != 4 {
		t.Fatalf("Flatten backward shape %v", g.Shape())
	}
	if f.Params() != nil {
		t.Fatal("Flatten should have no params")
	}
}

func TestEmbeddingGradients(t *testing.T) {
	e := NewEmbedding(10, 4, bld(rng.New(21)))
	ctx := detCtx()
	ids := tensor.FromData([]float32{1, 3, 3, 7, 0, 9}, 2, 3)
	y := e.Forward(ctx, ids)
	if y.Dim(0) != 2 || y.Dim(1) != 3 || y.Dim(2) != 4 {
		t.Fatalf("Embedding shape %v", y.Shape())
	}
	g := tensor.New(2, 3, 4)
	g.Fill(1)
	e.Backward(ctx, g)
	// row 3 referenced twice → grad 2 per element; row 2 never → 0
	if e.W.Grad.At(3, 0) != 2 {
		t.Fatalf("duplicate id grad = %v, want 2", e.W.Grad.At(3, 0))
	}
	if e.W.Grad.At(2, 0) != 0 {
		t.Fatal("untouched row must have zero grad")
	}
	if e.W.Grad.At(7, 2) != 1 {
		t.Fatalf("single id grad = %v, want 1", e.W.Grad.At(7, 2))
	}
}
