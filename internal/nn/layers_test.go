package nn

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// bld returns a builder without sizes: the constructors' argument in tests.
func bld(init *rng.Stream) *Builder { return NewBuilder(init, nil, Sizes{}) }

func ctxOn(typ device.Type, det bool, sel device.Selection) *Context {
	return &Context{
		Dev:      device.New(typ, device.Config{DeterministicKernels: det, Selection: sel}),
		RNG:      rng.New(1),
		Training: true,
	}
}

// TestForwardBitwiseDeterministicSameDevice: two identical forward passes on
// the same device type with deterministic kernels must agree bitwise (the D0
// property at the layer level).
func TestForwardBitwiseDeterministicSameDevice(t *testing.T) {
	build := func() *Sequential {
		init := bld(rng.New(7))
		return NewSequential(
			NewConv2D(3, 8, 3, 1, 1, true, init),
			NewBatchNorm2D(8, init),
			NewReLU(),
			NewGlobalAvgPool(),
			NewLinear(8, 4, true, init),
		)
	}
	x := randTensor(2, 4, 3, 6, 6)
	y1 := build().Forward(ctxOn(device.V100, true, device.SelectHeuristic), x)
	y2 := build().Forward(ctxOn(device.V100, true, device.SelectHeuristic), x)
	if !y1.Equal(y2) {
		t.Fatal("deterministic forward passes diverged on identical devices")
	}
}

// TestForwardDiffersAcrossGPUTypes: heuristic (vendor) kernels on different
// GPU types produce bitwise-different outputs — the D2 problem.
func TestForwardDiffersAcrossGPUTypes(t *testing.T) {
	build := func() *Linear { return NewLinear(512, 4, true, bld(rng.New(7))) }
	x := randTensor(3, 2, 512)
	yv := build().Forward(ctxOn(device.V100, true, device.SelectHeuristic), x)
	yt := build().Forward(ctxOn(device.T4, true, device.SelectHeuristic), x)
	if yv.Equal(yt) {
		t.Skip("V100 and T4 kernels agreed bitwise on this input (rare)")
	}
	for i := range yv.Data {
		if d := math.Abs(float64(yv.Data[i] - yt.Data[i])); d > 1e-3 {
			t.Fatalf("cross-type outputs too different at %d: %v", i, d)
		}
	}
}

// TestForwardIdenticalAcrossGPUTypesWithFixedAlgo: the D2 solution — pinned
// hardware-agnostic kernels make types bitwise identical.
func TestForwardIdenticalAcrossGPUTypesWithFixedAlgo(t *testing.T) {
	build := func() *Sequential {
		init := bld(rng.New(7))
		return NewSequential(
			NewConv2D(3, 4, 3, 1, 1, true, init),
			NewBatchNorm2D(4, init),
			NewReLU(),
			NewGlobalAvgPool(),
			NewLinear(4, 3, true, init),
		)
	}
	x := randTensor(4, 2, 3, 8, 8)
	var outs []*tensor.Tensor
	for _, typ := range device.AllTypes() {
		outs = append(outs, build().Forward(ctxOn(typ, true, device.SelectFixedAlgo), x))
	}
	if !outs[0].Equal(outs[1]) || !outs[1].Equal(outs[2]) {
		t.Fatal("fixed-algo forward must be bitwise identical across GPU types")
	}
}

// TestNonDeterministicKernelsVary: with atomics enabled, repeated backward
// passes produce different parameter gradients (the stock-framework default).
func TestNonDeterministicKernelsVary(t *testing.T) {
	x := randTensor(6, 64, 32)
	g := randTensor(7, 64, 16)
	hashes := map[uint64]bool{}
	for i := 0; i < 30; i++ {
		l := NewLinear(32, 16, true, bld(rng.New(9)))
		ctx := ctxOn(device.V100, false, device.SelectHeuristic)
		l.Forward(ctx, x)
		dx := l.Backward(ctx, g)
		hashes[dx.Hash64()] = true
	}
	if len(hashes) < 2 {
		t.Fatal("atomic-kernel backward produced identical bits over 30 runs")
	}
}

func TestDropoutEvalIdentity(t *testing.T) {
	d := NewDropout(0.5)
	ctx := detCtx()
	ctx.Training = false
	x := randTensor(8, 4, 4)
	if !d.Forward(ctx, x).Equal(x) {
		t.Fatal("eval-mode dropout must be identity")
	}
	if !d.Backward(ctx, x).Equal(x) {
		t.Fatal("eval-mode dropout backward must be identity")
	}
}

func TestDropoutRNGStateControlsMask(t *testing.T) {
	d := NewDropout(0.5)
	ctx := detCtx()
	st := ctx.RNG.State()
	x := tensor.New(100)
	x.Fill(1)
	y1 := d.Forward(ctx, x)
	ctx.RNG.SetState(st)
	y2 := d.Forward(ctx, x)
	if !y1.Equal(y2) {
		t.Fatal("same RNG state must give identical dropout masks")
	}
	y3 := d.Forward(ctx, x) // advanced state → different mask
	if y1.Equal(y3) {
		t.Fatal("advanced RNG state should give a different mask")
	}
}

func TestDropoutBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(1.0)
}

func TestBatchNormRunningStats(t *testing.T) {
	bn := NewBatchNorm2D(2, bld(nil))
	ctx := detCtx()
	x := randTensor(9, 8, 2, 4, 4)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*2 + 3 // mean≈3, var≈4
	}
	for i := 0; i < 50; i++ {
		bn.Forward(ctx, x)
	}
	if m := float64(bn.RunningMean.Data[0]); math.Abs(m-3) > 0.5 {
		t.Fatalf("running mean %v, want ≈3", m)
	}
	if v := float64(bn.RunningVar.Data[0]); math.Abs(v-4) > 1.5 {
		t.Fatalf("running var %v, want ≈4", v)
	}
	// eval mode must use running stats
	ctx.Training = false
	y := bn.Forward(ctx, x)
	if y.Size() != x.Size() {
		t.Fatal("eval forward shape mismatch")
	}
	if st := bn.StateTensors(); len(st) != 2 {
		t.Fatalf("BatchNorm should expose 2 state tensors, got %d", len(st))
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	bn := NewBatchNorm2D(1, bld(nil))
	ctx := detCtx()
	x := randTensor(10, 16, 1, 2, 2)
	y := bn.Forward(ctx, x)
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(y.Size())
	var variance float64
	for _, v := range y.Data {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= float64(y.Size())
	if math.Abs(mean) > 1e-3 || math.Abs(variance-1) > 1e-2 {
		t.Fatalf("normalized output mean=%v var=%v", mean, variance)
	}
}

func TestLayerNormNormalizesRows(t *testing.T) {
	ln := NewLayerNorm(32, bld(nil))
	ctx := detCtx()
	x := randTensor(11, 4, 32)
	y := ln.Forward(ctx, x)
	for r := 0; r < 4; r++ {
		var mean float64
		for j := 0; j < 32; j++ {
			mean += float64(y.At(r, j))
		}
		mean /= 32
		if math.Abs(mean) > 1e-3 {
			t.Fatalf("row %d mean %v", r, mean)
		}
	}
}

func TestMaxPoolForward(t *testing.T) {
	m := NewMaxPool2D(2, 2)
	ctx := detCtx()
	x := tensor.FromData([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := m.Forward(ctx, x)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("maxpool[%d]=%v want %v", i, y.Data[i], w)
		}
	}
}

func TestGlobalAvgPoolForward(t *testing.T) {
	g := NewGlobalAvgPool()
	ctx := detCtx()
	x := tensor.FromData([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := g.Forward(ctx, x)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gap: %v", y.Data)
	}
}

func TestAttentionShapes(t *testing.T) {
	a := NewMultiHeadAttention(8, 4, bld(rng.New(12)))
	ctx := detCtx()
	x := randTensor(13, 2, 5, 8)
	y := a.Forward(ctx, x)
	if y.Dim(0) != 2 || y.Dim(1) != 5 || y.Dim(2) != 8 {
		t.Fatalf("attention output shape %v", y.Shape())
	}
	if len(a.Params()) != 8 {
		t.Fatalf("attention should expose 8 params, got %d", len(a.Params()))
	}
}

func TestAttentionRowsSumToOne(t *testing.T) {
	a := NewMultiHeadAttention(4, 1, bld(rng.New(14)))
	ctx := detCtx()
	a.Forward(ctx, randTensor(15, 1, 3, 4))
	for r := 0; r < 3; r++ {
		var sum float64
		for c := 0; c < 3; c++ {
			sum += float64(a.attn.Data[r*3+c])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("attention row %d sums to %v", r, sum)
		}
	}
}

func TestAttentionBadHeadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention(7, 2, bld(rng.New(1)))
}

func TestSequentialParamAndStateCollection(t *testing.T) {
	init := bld(rng.New(16))
	net := NewSequential(
		NewConv2D(1, 2, 3, 1, 1, true, init),
		NewBatchNorm2D(2, init),
		NewReLU(),
	)
	if n := len(net.Params()); n != 4 { // conv w,b + bn γ,β
		t.Fatalf("params = %d, want 4", n)
	}
	if n := len(net.StateTensors()); n != 2 {
		t.Fatalf("state tensors = %d, want 2", n)
	}
}

func TestKaimingInitStats(t *testing.T) {
	w := tensor.New(1000, 50)
	KaimingInit(w, 50, rng.New(17))
	var sum, sumsq float64
	for _, v := range w.Data {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	n := float64(w.Size())
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	want := math.Sqrt(2.0 / 50)
	if math.Abs(mean) > 0.01 || math.Abs(std-want) > 0.01 {
		t.Fatalf("kaiming mean=%v std=%v want std=%v", mean, std, want)
	}
}

func TestParameterZeroGrad(t *testing.T) {
	p := bld(nil).Param("w", 3)
	p.Grad.Fill(5)
	p.ZeroGrad()
	for _, v := range p.Grad.Data {
		if v != 0 {
			t.Fatal("ZeroGrad failed")
		}
	}
}

func TestLinearShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLinear(5, 3, true, bld(rng.New(1))).Forward(detCtx(), tensor.New(2, 4))
}

func TestChargeAccumulatesSimulatedTime(t *testing.T) {
	ctx := detCtx()
	l := NewLinear(64, 64, true, bld(rng.New(19)))
	before := ctx.Dev.Now()
	l.Forward(ctx, randTensor(20, 8, 64))
	if ctx.Dev.Now() <= before {
		t.Fatal("forward should charge simulated time")
	}
}
