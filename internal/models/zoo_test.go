package models

import (
	"testing"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/tensor"
)

func trainCtx() *nn.Context {
	return &nn.Context{
		Dev:      device.New(device.V100, device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic}),
		RNG:      rng.New(3),
		Training: true,
	}
}

func TestNamesCoversTable1(t *testing.T) {
	names := TableNames()
	if len(names) != 8 {
		t.Fatalf("Table 1 has 8 workloads, TableNames has %d: %v", len(names), names)
	}
	for _, want := range []string{"shufflenetv2", "resnet50", "vgg19", "yolov3", "neumf", "bert", "electra", "swintransformer"} {
		if _, err := Build(want, 1); err != nil {
			t.Fatalf("workload %s missing: %v", want, err)
		}
	}
}

func TestBuildUnknownErrors(t *testing.T) {
	if _, err := Build("gpt5", 1); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestVendorKernelFlags(t *testing.T) {
	vendor := map[string]bool{
		"shufflenetv2": true, "resnet50": true, "vgg19": true, "yolov3": true,
		"neumf": false, "bert": false, "electra": false, "swintransformer": false,
	}
	for name, want := range vendor {
		if got := MustBuild(name, 1).UsesVendorKernels; got != want {
			t.Fatalf("%s UsesVendorKernels = %v, want %v", name, got, want)
		}
	}
}

// TestAllWorkloadsTrainStep runs one full forward/loss/backward/update step
// on every workload.
func TestAllWorkloadsTrainStep(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustBuild(name, 42)
			ctx := trainCtx()
			idx := make([]int, 4)
			for i := range idx {
				idx[i] = i
			}
			x, labels := data.MaterializeBatch(w.Dataset, idx, nil)
			out := w.Net.Forward(ctx, x)
			loss := w.Loss.Forward(ctx, out, labels)
			if loss <= 0 || loss != loss {
				t.Fatalf("initial loss %v not positive/finite", loss)
			}
			w.Net.Backward(ctx, w.Loss.Backward(ctx))
			var gradNorm float64
			for _, p := range w.Params() {
				for _, g := range p.Grad.Data {
					gradNorm += float64(g) * float64(g)
				}
			}
			if gradNorm == 0 {
				t.Fatal("all gradients zero after backward")
			}
			optim.NewSGD(w.Params(), 0.01, 0.9, 0).Step()
		})
	}
}

// TestWorkloadsLearn verifies the loss decreases over a few dozen steps for a
// representative conv model and a transformer model.
func TestWorkloadsLearn(t *testing.T) {
	for _, name := range []string{"vgg19", "electra", "neumf"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustBuild(name, 7)
			ctx := trainCtx()
			opt := optim.NewSGD(w.Params(), 0.05, 0.9, 0)
			batch := 16
			var first, last float32
			for step := 0; step < 40; step++ {
				idx := make([]int, batch)
				for i := range idx {
					idx[i] = (step*batch + i) % w.Dataset.Len()
				}
				x, labels := data.MaterializeBatch(w.Dataset, idx, nil)
				for _, p := range w.Params() {
					p.ZeroGrad()
				}
				out := w.Net.Forward(ctx, x)
				loss := w.Loss.Forward(ctx, out, labels)
				w.Net.Backward(ctx, w.Loss.Backward(ctx))
				opt.Step()
				if step == 0 {
					first = loss
				}
				last = loss
			}
			if last >= first {
				t.Fatalf("%s loss did not decrease: %v → %v", name, first, last)
			}
		})
	}
}

func TestBuildDeterministicInit(t *testing.T) {
	for _, name := range Names() {
		a := MustBuild(name, 5)
		b := MustBuild(name, 5)
		pa, pb := a.Params(), b.Params()
		if len(pa) != len(pb) || len(pa) == 0 {
			t.Fatalf("%s param lists differ or empty", name)
		}
		for i := range pa {
			if !pa[i].Value.Equal(pb[i].Value) {
				t.Fatalf("%s param %d differs across identical builds", name, i)
			}
		}
		c := MustBuild(name, 6)
		if c.Params()[0].Value.Equal(pa[0].Value) {
			t.Fatalf("%s different seeds should give different init", name)
		}
	}
}

func TestStateTensorsPresence(t *testing.T) {
	// BatchNorm models carry state; pure transformer models do not
	if len(MustBuild("resnet50", 1).StateTensors()) == 0 {
		t.Fatal("resnet50 should have BatchNorm state")
	}
	if len(MustBuild("bert", 1).StateTensors()) != 0 {
		t.Fatal("bert should have no implicit state tensors")
	}
}

func TestStepFLOPsPositiveAndOrdered(t *testing.T) {
	small := MustBuild("neumf", 1).StepFLOPs(8)
	big := MustBuild("resnet50", 1).StepFLOPs(8)
	if small <= 0 || big <= 0 {
		t.Fatal("StepFLOPs must be positive")
	}
	if big < small {
		t.Fatalf("resnet50 (%.0f) should cost more than neumf (%.0f)", big, small)
	}
}

func TestNeuMFRejectsBadInput(t *testing.T) {
	w := MustBuild("neumf", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Net.Forward(trainCtx(), tensor.New(4, 3)) // wants [B,2]
}
