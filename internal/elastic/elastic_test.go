package elastic

import (
	"math"
	"testing"

	"repro/internal/core"
)

func baseCfg(fw Framework) BaselineConfig {
	return BaselineConfig{
		Framework:   fw,
		Seed:        42,
		RefWorld:    4,
		BatchPerGPU: 8,
		BaseLR:      0.05,
		Momentum:    0.9,
	}
}

func TestFrameworkNames(t *testing.T) {
	if FixedDDP.String() != "DDP" || TorchElastic.String() != "TorchElastic" || Pollux.String() != "Pollux" {
		t.Fatal("framework names")
	}
	if Framework(9).String() == "" {
		t.Fatal("unknown framework should render")
	}
}

func TestHyperAdaptationRules(t *testing.T) {
	cfg := baseCfg(TorchElastic)
	if cfg.lr(4) != 0.05 {
		t.Fatalf("TE lr at refWorld = %v", cfg.lr(4))
	}
	if cfg.lr(8) != 0.1 {
		t.Fatalf("TE linear scaling: lr(8) = %v, want 0.1", cfg.lr(8))
	}
	if cfg.perGPUBatch(8) != 8 {
		t.Fatal("TE keeps per-GPU batch")
	}

	p := baseCfg(Pollux)
	if p.perGPUBatch(4) != 8 {
		t.Fatalf("Pollux batch at refWorld = %d", p.perGPUBatch(4))
	}
	// at world 1: total = 32·sqrt(1/4) = 16 → per-GPU 16
	if p.perGPUBatch(1) != 16 {
		t.Fatalf("Pollux batch at world 1 = %d, want 16", p.perGPUBatch(1))
	}
	if math.Abs(p.lr(1)-0.05*math.Sqrt(0.5)) > 1e-9 {
		t.Fatalf("Pollux lr at world 1 = %v", p.lr(1))
	}

	d := baseCfg(FixedDDP)
	if d.lr(8) != 0.05 || d.perGPUBatch(8) != 8 {
		t.Fatal("DDP must not adapt")
	}
}

func TestBaselineJobValidation(t *testing.T) {
	if _, err := NewBaselineJob(baseCfg(FixedDDP), "vgg19", 0); err == nil {
		t.Fatal("world 0 must error")
	}
	if _, err := NewBaselineJob(baseCfg(FixedDDP), "nope", 2); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestBaselineTrainsAndLossDecreases(t *testing.T) {
	j, err := NewBaselineJob(baseCfg(FixedDDP), "vgg19", 4)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for s := 0; s < 25; s++ {
		j.RunStep()
		if s == 0 {
			first = meanLoss(j)
		}
		last = meanLoss(j)
	}
	if last >= first {
		t.Fatalf("baseline loss did not decrease: %v → %v", first, last)
	}
	ev := j.Evaluate()
	overall, perClass := ev.Overall, ev.PerClass
	if overall < 0 || overall > 1 || len(perClass) != 10 {
		t.Fatalf("eval: %v %v", overall, perClass)
	}
}

// TestInconsistentAccuracyAcrossWorlds is the Figure 2 phenomenon: the same
// job trained by an adaptive framework at different GPU counts ends with
// different parameters, while DDP semantics at the reference world define
// the target. Bitwise: TE at world 4 == DDP at world 4 (no adaptation at the
// reference), TE at world 2 != DDP at world 4.
func TestInconsistentAccuracyAcrossWorlds(t *testing.T) {
	run := func(fw Framework, world, steps int) *core.Job {
		j, err := NewBaselineJob(baseCfg(fw), "vgg19", world)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			j.RunStep()
		}
		return j
	}
	ref := run(FixedDDP, 4, 10)
	te4 := run(TorchElastic, 4, 10)
	if !core.ParamsEqual(ref, te4) {
		t.Fatal("TorchElastic at the reference world must equal DDP (no adaptation applies)")
	}
	te2 := run(TorchElastic, 2, 20) // same number of samples
	if core.ParamsEqual(ref, te2) {
		t.Fatal("TorchElastic at world 2 should diverge from DDP at world 4")
	}
	px2 := run(Pollux, 2, 20)
	if core.ParamsEqual(ref, px2) || core.ParamsEqual(te2, px2) {
		t.Fatal("Pollux should diverge from both DDP and TorchElastic")
	}
}

// meanLoss is the mean of the workers' losses in the last step.
func meanLoss(j *core.Job) float32 {
	var sum float32
	for _, l := range j.LastLosses() {
		sum += l
	}
	return sum / float32(len(j.LastLosses()))
}

func TestSimulatePackingOOMCrossover(t *testing.T) {
	// ResNet50 @ batch 32 on 16 GB V100: fine at 8 workers, OOM at 9+
	ok := SimulatePacking("resnet50", 8, 32, 16*1024)
	if ok.OOM {
		t.Fatal("8 packed resnet50 workers should fit on 16 GB")
	}
	oom := SimulatePacking("resnet50", 9, 32, 16*1024)
	if !oom.OOM {
		t.Fatal("9 packed resnet50 workers should OOM on 16 GB")
	}
	// ShuffleNetV2 @ batch 512 on 32 GB V100: 2 workers fit, 3 OOM
	if SimulatePacking("shufflenetv2", 2, 512, 32*1024).OOM {
		t.Fatal("2 packed shufflenet workers should fit on 32 GB")
	}
	if !SimulatePacking("shufflenetv2", 3, 512, 32*1024).OOM {
		t.Fatal("3 packed shufflenet workers should OOM on 32 GB")
	}
}

func TestEasyScaleSharingConstantMemory(t *testing.T) {
	r1 := SimulateEasyScaleSharing("resnet50", 1, 32, 16*1024)
	r16 := SimulateEasyScaleSharing("resnet50", 16, 32, 16*1024)
	if r1.OOM || r16.OOM {
		t.Fatal("EasyScale sharing must not OOM")
	}
	if r16.PeakMB > r1.PeakMB*1.01 {
		t.Fatalf("EasyScale memory should be ~constant: %v vs %v", r1.PeakMB, r16.PeakMB)
	}
	// ShuffleNet at 16 ESTs on 32 GB also fits (paper Figure 10b)
	if SimulateEasyScaleSharing("shufflenetv2", 16, 512, 32*1024).OOM {
		t.Fatal("16 shufflenet ESTs should fit via sharing")
	}
}

func TestPackingThroughputShape(t *testing.T) {
	es := SimulateEasyScaleSharing("resnet50", 4, 32, 16*1024)
	pk := SimulatePacking("resnet50", 4, 32, 16*1024)
	if pk.Throughput <= es.Throughput {
		t.Fatal("packing should have a small concurrency advantage while it fits")
	}
	if pk.Throughput > es.Throughput*1.2 {
		t.Fatalf("packing advantage too large: %v vs %v", pk.Throughput, es.Throughput)
	}
	// EasyScale throughput roughly constant in the number of ESTs
	es1 := SimulateEasyScaleSharing("resnet50", 1, 32, 16*1024)
	es16 := SimulateEasyScaleSharing("resnet50", 16, 32, 16*1024)
	ratio := es16.Throughput / es1.Throughput
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("EasyScale throughput should be ~constant across EST counts: ratio %v", ratio)
	}
}

// TestVirtualFlowCloserButNotBitwise: gradient accumulation preserves the
// data partition and hyper-parameters, so VirtualFlow tracks DDP far more
// closely than TE/Pollux — but the changed reduction order still breaks
// bitwise equality, the residual drift the paper cites.
func TestVirtualFlowCloserButNotBitwise(t *testing.T) {
	run := func(fw Framework, world, steps int) *core.Job {
		j, err := NewBaselineJob(baseCfg(fw), "vgg19", world)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			j.RunStep()
		}
		return j
	}
	const steps = 15
	ref := run(FixedDDP, 4, steps)
	vf2 := run(VirtualFlow, 2, steps) // same #global steps: same samples
	if core.ParamsEqual(ref, vf2) {
		t.Fatal("VirtualFlow at a different world should not be bitwise equal (reduction order changed)")
	}
	te2 := run(TorchElastic, 2, 2*steps)
	dVF := drift(ref, vf2)
	dTE := drift(ref, te2)
	if dVF >= dTE {
		t.Fatalf("VirtualFlow drift (%v) should be far below TorchElastic drift (%v)", dVF, dTE)
	}
	// VirtualFlow at the reference world degenerates to DDP exactly
	vf4 := run(VirtualFlow, 4, steps)
	if !core.ParamsEqual(ref, vf4) {
		t.Fatal("VirtualFlow at the reference world must equal DDP bitwise")
	}
}

func TestVirtualFlowRequiresDivisibleWorld(t *testing.T) {
	if _, err := NewBaselineJob(baseCfg(VirtualFlow), "vgg19", 3); err == nil {
		t.Fatal("expected an error")
	}
}
