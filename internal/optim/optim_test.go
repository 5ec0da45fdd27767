package optim

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/nn"
)

// param returns a zero parameter of n elements.
func param(n int) *nn.Parameter { return nn.NewBuilder(nil, nil, nn.Sizes{}).Param("w", n) }

func paramWithGrad(val, grad float32, n int) *nn.Parameter {
	p := param(n)
	p.Value.Fill(val)
	p.Grad.Fill(grad)
	return p
}

func TestSGDVanillaStep(t *testing.T) {
	p := paramWithGrad(1, 0.5, 3)
	opt := NewSGD([]*nn.Parameter{p}, 0.1, 0, 0)
	opt.Step()
	for _, v := range p.Value.Data {
		if math.Abs(float64(v)-0.95) > 1e-6 {
			t.Fatalf("sgd step: %v, want 0.95", v)
		}
	}
	if opt.StepCount() != 1 {
		t.Fatal("step count")
	}
}

func TestSGDMomentumMatchesPyTorchRule(t *testing.T) {
	p := paramWithGrad(0, 1, 1)
	opt := NewSGD([]*nn.Parameter{p}, 0.1, 0.9, 0)
	opt.Step() // v=1, w=-0.1
	p.Grad.Fill(1)
	opt.Step() // v=0.9+1=1.9, w=-0.1-0.19=-0.29
	if math.Abs(float64(p.Value.Data[0])+0.29) > 1e-6 {
		t.Fatalf("momentum step: %v, want -0.29", p.Value.Data[0])
	}
	if len(opt.StateTensors()) != 1 {
		t.Fatal("momentum buffer missing from state")
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := paramWithGrad(2, 0, 1)
	opt := NewSGD([]*nn.Parameter{p}, 0.1, 0, 0.5)
	opt.Step() // g = 0 + 0.5*2 = 1; w = 2 - 0.1
	if math.Abs(float64(p.Value.Data[0])-1.9) > 1e-6 {
		t.Fatalf("weight decay step: %v, want 1.9", p.Value.Data[0])
	}
}

func TestSGDNoMomentumHasNoState(t *testing.T) {
	opt := NewSGD([]*nn.Parameter{paramWithGrad(1, 1, 2)}, 0.1, 0, 0)
	if opt.StateTensors() != nil {
		t.Fatal("vanilla SGD should have no state tensors")
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := param(1)
	opt := NewSGD([]*nn.Parameter{p}, 0.1, 0.9, 0)
	for i := 0; i < 200; i++ {
		p.ZeroGrad()
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 5)
		opt.Step()
	}
	if math.Abs(float64(p.Value.Data[0])-5) > 0.05 {
		t.Fatalf("sgd did not converge: %v", p.Value.Data[0])
	}
}

func TestStepCountRestore(t *testing.T) {
	opt := NewSGD([]*nn.Parameter{paramWithGrad(0, 1, 1)}, 0.01, 0.9, 0)
	opt.Step()
	opt.Step()
	opt.SetStepCount(7)
	if opt.StepCount() != 7 {
		t.Fatal("SetStepCount failed")
	}
}

func TestStepLRSchedule(t *testing.T) {
	opt := NewSGD([]*nn.Parameter{paramWithGrad(0, 0, 1)}, 1.0, 0, 0)
	sch := NewStepLR(opt, 2, 0.1)
	if opt.LR() != 1.0 {
		t.Fatal("base lr")
	}
	sch.EpochStep() // epoch 1 → no decay
	if opt.LR() != 1.0 {
		t.Fatalf("lr after 1 epoch = %v", opt.LR())
	}
	sch.EpochStep() // epoch 2 → ×0.1
	if math.Abs(opt.LR()-0.1) > 1e-12 {
		t.Fatalf("lr after 2 epochs = %v", opt.LR())
	}
	sch.EpochStep()
	sch.EpochStep() // epoch 4 → ×0.01
	if math.Abs(opt.LR()-0.01) > 1e-12 {
		t.Fatalf("lr after 4 epochs = %v", opt.LR())
	}
	if sch.Epoch() != 4 {
		t.Fatal("epoch counter")
	}
}

func TestStepLRSetEpochRestores(t *testing.T) {
	opt := NewSGD([]*nn.Parameter{paramWithGrad(0, 0, 1)}, 1.0, 0, 0)
	sch := NewStepLR(opt, 3, 0.5)
	sch.SetEpoch(7) // 2 decays
	if math.Abs(opt.LR()-0.25) > 1e-12 {
		t.Fatalf("restored lr = %v, want 0.25", opt.LR())
	}
}

func TestDeterministicUpdates(t *testing.T) {
	run := func() float32 {
		p := paramWithGrad(1, 0.3, 64)
		opt := NewSGD([]*nn.Parameter{p}, 0.01, 0.9, 0)
		for i := 0; i < 20; i++ {
			opt.Step()
		}
		return p.Value.Data[63]
	}
	if run() != run() {
		t.Fatal("optimizer updates must be bitwise deterministic")
	}
}

// sgdStepRef is the executable spec of one SGD step on a single parameter:
// the scalar expression sequence the vectorized kernels primitives must
// reproduce bit-for-bit (see the SGD.Step doc comment).
func sgdStepRef(w, v, g []float32, lr, mu, wd float32) {
	for i := range w {
		gi := g[i]
		if wd != 0 {
			gi = g[i] + wd*w[i]
		}
		if v != nil {
			nv := mu*v[i] + gi
			v[i] = nv
			w[i] -= lr * nv
		} else {
			w[i] -= lr * gi
		}
	}
}

// TestSGDStepBitwiseMatchesScalarRef runs full SGD steps against sgdStepRef
// across momentum/weight-decay combinations, odd lengths straddling the
// vector width, and special values (NaN, ±Inf, −0, denormals) in weights,
// gradients, and velocity — under every available kernel ISA.
func TestSGDStepBitwiseMatchesScalarRef(t *testing.T) {
	prevISA := kernels.ActiveISA()
	defer kernels.SetISA(prevISA)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, math.MaxFloat32,
	}
	cfgs := []struct{ lr, mu, wd float64 }{
		{0.1, 0, 0}, {0.1, 0.9, 0}, {0.1, 0, 5e-4}, {0.01, 0.9, 5e-4},
	}
	for _, isa := range kernels.AvailableISAs() {
		if err := kernels.SetISA(isa); err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range cfgs {
			for _, n := range []int{1, 7, 8, 9, 17, 33, 100} {
				p := param(n)
				for i := range p.Value.Data {
					p.Value.Data[i] = float32(i%13) * 0.25
					p.Grad.Data[i] = float32(i%7) * 0.5
				}
				p.Value.Data[n/2] = specials[ci%len(specials)]
				p.Grad.Data[n/3] = specials[(ci+3)%len(specials)]
				opt := NewSGD([]*nn.Parameter{p}, cfg.lr, cfg.mu, cfg.wd)

				wRef := append([]float32(nil), p.Value.Data...)
				gRef := append([]float32(nil), p.Grad.Data...)
				var vRef []float32
				if cfg.mu != 0 {
					vRef = make([]float32, n)
					vRef[n/4] = specials[(ci+1)%len(specials)]
					copy(opt.velocity[0].Data, vRef)
				}
				for step := 0; step < 3; step++ {
					opt.Step()
					sgdStepRef(wRef, vRef, gRef, float32(cfg.lr), float32(cfg.mu), float32(cfg.wd))
				}
				for i := range wRef {
					gb, wb := math.Float32bits(p.Value.Data[i]), math.Float32bits(wRef[i])
					if gb != wb && !(isNaN32(p.Value.Data[i]) && isNaN32(wRef[i])) {
						t.Fatalf("[%s] cfg=%d n=%d w[%d]: got bits %#08x, want %#08x", isa, ci, n, i, gb, wb)
					}
				}
				if vRef != nil {
					for i := range vRef {
						gb, wb := math.Float32bits(opt.velocity[0].Data[i]), math.Float32bits(vRef[i])
						if gb != wb && !(isNaN32(opt.velocity[0].Data[i]) && isNaN32(vRef[i])) {
							t.Fatalf("[%s] cfg=%d n=%d v[%d]: got bits %#08x, want %#08x", isa, ci, n, i, gb, wb)
						}
					}
				}
			}
		}
	}
}

func isNaN32(x float32) bool { return x != x }
