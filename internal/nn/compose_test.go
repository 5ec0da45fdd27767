package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestResidualForwardAddsSkip(t *testing.T) {
	// body = identity-ish: Linear initialized to zero weight → body(x)=bias=0
	body := NewLinear(4, 4, true, bld(nil))
	body.W.Value.Zero()
	r := NewResidual(body)
	x := randTensor(40, 3, 4)
	y := r.Forward(detCtx(), x)
	if !y.Equal(x) {
		t.Fatal("zero body residual must be identity")
	}
}

func TestResidualGradients(t *testing.T) {
	init := bld(rng.New(41))
	body := NewSequential(NewLinear(5, 5, true, init), NewGELU())
	checkLayerGrads(t, NewResidual(body), randTensor(42, 3, 5), 1e-2, 3e-2)
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResidual(NewLinear(4, 3, true, bld(rng.New(1)))).Forward(detCtx(), randTensor(43, 2, 4))
}

func TestResidualStateTensors(t *testing.T) {
	r := NewResidual(NewSequential(NewConv2D(2, 2, 3, 1, 1, false, bld(rng.New(1))), NewBatchNorm2D(2, bld(nil))))
	if len(r.StateTensors()) != 2 {
		t.Fatal("residual should surface body state tensors")
	}
	if NewResidual(NewReLU()).StateTensors() != nil {
		t.Fatal("stateless body should have no state tensors")
	}
}

func TestMeanPoolForward(t *testing.T) {
	m := NewMeanPool()
	x := tensor.FromData([]float32{1, 2, 3, 4, 5, 6}, 1, 3, 2) // rows (1,2),(3,4),(5,6)
	y := m.Forward(detCtx(), x)
	if y.At(0, 0) != 3 || y.At(0, 1) != 4 {
		t.Fatalf("meanpool: %v", y.Data)
	}
}

func TestMeanPoolGradients(t *testing.T) {
	checkLayerGrads(t, NewMeanPool(), randTensor(44, 2, 4, 3), 1e-2, 2e-2)
}

func TestPatchEmbedShapes(t *testing.T) {
	pe := NewPatchEmbed(3, 2, 8, bld(rng.New(45)))
	y := pe.Forward(detCtx(), randTensor(46, 2, 3, 4, 4))
	if y.Dim(0) != 2 || y.Dim(1) != 4 || y.Dim(2) != 8 {
		t.Fatalf("patch embed shape %v", y.Shape())
	}
}

func TestPatchEmbedGradients(t *testing.T) {
	pe := NewPatchEmbed(2, 2, 4, bld(rng.New(47)))
	checkLayerGrads(t, pe, randTensor(48, 2, 2, 4, 4), 1e-2, 3e-2)
}

func TestPatchEmbedRoundTripStructure(t *testing.T) {
	// With an identity-like projection (square, identity matrix), patchify
	// then backward of ones must scatter gradients to every input pixel once.
	pe := NewPatchEmbed(1, 2, 4, bld(nil))
	pe.Proj.W.Value.Zero()
	for i := 0; i < 4; i++ {
		pe.Proj.W.Value.Set(1, i, i)
	}
	ctx := detCtx()
	x := randTensor(49, 1, 1, 4, 4)
	y := pe.Forward(ctx, x)
	// identity projection: output values are a permutation of input values
	sumIn, sumOut := 0.0, 0.0
	for _, v := range x.Data {
		sumIn += float64(v)
	}
	for _, v := range y.Data {
		sumOut += float64(v)
	}
	if math.Abs(sumIn-sumOut) > 1e-4 {
		t.Fatalf("identity patch embed should conserve sum: %v vs %v", sumIn, sumOut)
	}
	ones := tensor.New(1, 4, 4)
	ones.Fill(1)
	dx := pe.Backward(ctx, ones)
	for _, v := range dx.Data {
		if v != 1 {
			t.Fatalf("each pixel should receive exactly one unit of gradient, got %v", v)
		}
	}
}

// backwardSpy counts which backward a wrapped layer is asked for.
type backwardSpy struct {
	Layer
	full, params int
}

func (s *backwardSpy) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	s.full++
	return s.Layer.Backward(ctx, grad)
}

func (s *backwardSpy) BackwardParams(ctx *Context, grad *tensor.Tensor) {
	s.params++
	BackwardParams(s.Layer, ctx, grad)
}

// TestBackwardParamsMatchesBackward: a resnet-shaped net run through
// BackwardParams, whose stem conv then skips its dX, accumulates every
// parameter gradient bit for bit as the full Backward does. The convs inside
// the Residual still compute their dX, through Backward: the stem's weight
// gradient is made from it, and the gradcheck below pins that path to
// finite differences.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	build := func() (*Sequential, *backwardSpy, *backwardSpy) {
		init := bld(rng.New(31))
		stem := &backwardSpy{Layer: NewConv2D(3, 4, 3, 1, 1, false, init)}
		inner := &backwardSpy{Layer: NewConv2D(4, 4, 3, 1, 1, true, init)}
		return NewSequential(
			stem,
			NewBatchNorm2D(4, init),
			NewReLU(),
			NewResidual(NewSequential(inner, NewReLU(), NewConv2D(4, 4, 3, 1, 1, false, init), NewBatchNorm2D(4, init))),
			NewGlobalAvgPool(),
			NewLinear(4, 5, true, init),
		), stem, inner
	}
	x, g := randTensor(32, 2, 3, 6, 6), randTensor(33, 2, 5)
	full, fullStem, _ := build()
	skip, skipStem, skipInner := build()
	ctx := detCtx()
	full.Forward(ctx, x)
	full.Backward(ctx, g)
	skip.Forward(ctx, x)
	BackwardParams(skip, ctx, g)
	if fullStem.full != 1 || skipStem.full != 0 || skipStem.params != 1 || skipInner.full != 1 || skipInner.params != 0 {
		t.Fatalf("backward calls: full stem %+v, skip stem %+v, skip residual conv %+v; want the skip only at the stem",
			*fullStem, *skipStem, *skipInner)
	}
	fp, sp := full.Params(), skip.Params()
	for i := range fp {
		for j, v := range fp[i].Grad.Data {
			if w := sp[i].Grad.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("param %d (%s) grad[%d]: BackwardParams %v, Backward %v", i, fp[i].Name, j, w, v)
			}
		}
	}
	init := bld(rng.New(34))
	body := NewSequential(NewConv2D(2, 2, 3, 1, 1, true, init), NewConv2D(2, 2, 3, 1, 1, false, init))
	checkLayerGrads(t, NewSequential(NewResidual(body)), randTensor(35, 2, 2, 5, 5), 1e-2, 3e-2)
}
