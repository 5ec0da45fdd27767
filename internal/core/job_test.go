package core

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/models"
)

func testCfg(level Determinism, d2 bool, ests int) Config {
	return Config{
		Level: level, D2: d2,
		Seed:              42,
		NumESTs:           ests,
		BatchPerEST:       4,
		DataWorkersPerEST: 2,
		BucketCapElems:    512,
		LR:                0.05,
		Momentum:          0.9,
	}
}

func mustJob(t *testing.T, cfg Config, name string, p Placement) *Job {
	t.Helper()
	j, err := NewJob(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(p); err != nil {
		t.Fatal(err)
	}
	return j
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{NumESTs: 0, BatchPerEST: 1, DataWorkersPerEST: 1, BucketCapElems: 1},
		{NumESTs: 1, BatchPerEST: 0, DataWorkersPerEST: 1, BucketCapElems: 1},
		{NumESTs: 1, BatchPerEST: 1, DataWorkersPerEST: 0, BucketCapElems: 1},
		{NumESTs: 1, BatchPerEST: 1, DataWorkersPerEST: 1, BucketCapElems: 0},
		{Level: 7, NumESTs: 1, BatchPerEST: 1, DataWorkersPerEST: 1, BucketCapElems: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v should be invalid", bad)
		}
	}
}

func TestDeviceConfigDerivation(t *testing.T) {
	if dc := (Config{Level: DetNone}).DeviceConfig(); dc.DeterministicKernels || dc.Selection != device.SelectProfiled {
		t.Fatalf("DetNone device config wrong: %+v", dc)
	}
	if dc := (Config{Level: D0}).DeviceConfig(); !dc.DeterministicKernels || dc.Selection != device.SelectHeuristic {
		t.Fatalf("D0 device config wrong: %+v", dc)
	}
	if dc := (Config{Level: D1, D2: true}).DeviceConfig(); dc.Selection != device.SelectFixedAlgo {
		t.Fatalf("D1+D2 device config wrong: %+v", dc)
	}
}

func TestEvenPlacement(t *testing.T) {
	p := EvenPlacement(4, device.V100, device.V100)
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	if len(p.Assignment[0]) != 2 || len(p.Assignment[1]) != 2 {
		t.Fatalf("assignment %v", p.Assignment)
	}
	// remainder goes to earlier devices
	p = EvenPlacement(5, device.V100, device.P100)
	if len(p.Assignment[0]) != 3 || len(p.Assignment[1]) != 2 {
		t.Fatalf("remainder assignment %v", p.Assignment)
	}
	if p.Homogeneous() {
		t.Fatal("mixed placement should not be homogeneous")
	}
	if !EvenPlacement(2, device.T4, device.T4).Homogeneous() {
		t.Fatal("same-type placement should be homogeneous")
	}
}

func TestEvenPlacementProperty(t *testing.T) {
	f := func(estsRaw, devsRaw uint8) bool {
		ests := int(estsRaw%8) + 1
		devs := int(devsRaw%uint8(ests)) + 1
		types := make([]device.Type, devs)
		p := EvenPlacement(ests, types...)
		return p.Validate(ests) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementValidationErrors(t *testing.T) {
	cases := []Placement{
		{},
		{Devices: []device.Type{device.V100}},
		{Devices: []device.Type{device.V100}, Assignment: [][]int{{}}},
		{Devices: []device.Type{device.V100}, Assignment: [][]int{{0, 0}}},
		{Devices: []device.Type{device.V100}, Assignment: [][]int{{0, 5}}},
		{Devices: []device.Type{device.V100}, Assignment: [][]int{{0}}}, // rank 1 missing
	}
	for i, p := range cases {
		if err := p.Validate(2); err == nil {
			t.Fatalf("case %d should fail validation: %+v", i, p)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	j, err := NewJob(cfg, "vgg19")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RunStep(); err == nil {
		t.Fatal("RunStep must fail while detached")
	}
	p := EvenPlacement(2, device.V100)
	if err := j.Attach(p); err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(p); err == nil {
		t.Fatal("double attach must fail")
	}
	if err := j.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	if j.GlobalStep() != 3 {
		t.Fatalf("global step = %d", j.GlobalStep())
	}
	losses := j.LastLosses()
	if len(losses) != 2 || losses[0] <= 0 {
		t.Fatalf("losses %v", losses)
	}
	j.Detach()
	if j.Attached() {
		t.Fatal("detach failed")
	}
	j.Detach() // idempotent
}

func TestNewJobErrors(t *testing.T) {
	if _, err := NewJob(testCfg(D1, false, 2), "nope"); err == nil {
		t.Fatal("unknown workload must error")
	}
	bad := testCfg(D1, false, 0)
	if _, err := NewJob(bad, "vgg19"); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestAttachOOMRollsBack(t *testing.T) {
	// shufflenetv2 at batch 512 needs ~14.6 GB — a 16 GB T4 fits one EST's
	// activations, but hosting cannot fit twice that working set on a
	// device with 8 GB.
	cfg := testCfg(D1, false, 2)
	cfg.BatchPerEST = 512
	j, err := NewJob(cfg, "shufflenetv2")
	if err != nil {
		t.Fatal(err)
	}
	devs := []*device.Device{device.NewWithMemory(device.V100, 8*1024, cfg.DeviceConfig())}
	p := Placement{Devices: []device.Type{device.V100}, Assignment: [][]int{{0, 1}}}
	if err := j.AttachDevices(p, devs); !errors.Is(err, device.ErrOOM) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if j.Attached() {
		t.Fatal("failed attach must leave job detached")
	}
	if devs[0].UsedMB() != 0 {
		t.Fatal("failed attach must roll back allocations")
	}
}

// TestAttachDevicesRejectsRepeatedDevice: the slots of a placement compute
// concurrently, so one *device.Device in two of them would have its clock
// charged from two goroutines. The attach fails before allocating anything.
func TestAttachDevicesRejectsRepeatedDevice(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	j, err := NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	d := device.New(device.V100, cfg.DeviceConfig())
	p := EvenPlacement(2, device.V100, device.V100)
	if err := j.AttachDevices(p, []*device.Device{d, d}); err == nil {
		t.Fatal("the same device in two slots must be rejected")
	}
	if j.Attached() || d.UsedMB() != 0 {
		t.Fatalf("rejected attach left state behind: attached=%v used=%v MB", j.Attached(), d.UsedMB())
	}
	if err := j.AttachDevices(p, []*device.Device{d, device.New(device.V100, cfg.DeviceConfig())}); err != nil {
		t.Fatalf("distinct devices must attach: %v", err)
	}
}

func TestEpochAdvancesAndSchedulerSteps(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	cfg.BatchPerEST = 8 // 1024/(4*8) = 32 steps per epoch
	cfg.StepLRSize = 1
	cfg.StepLRGamma = 0.1
	j := mustJob(t, cfg, "neumf", EvenPlacement(4, device.V100))
	spe := j.sampler.StepsPerEpoch()
	if spe != 32 {
		t.Fatalf("steps per epoch = %d", spe)
	}
	if err := j.RunSteps(spe); err != nil {
		t.Fatal(err)
	}
	if j.Epoch() != 1 || j.step != 0 {
		t.Fatalf("epoch=%d step=%d after one epoch", j.Epoch(), j.step)
	}
	if lr := j.opt.LR(); lr > 0.006 {
		t.Fatalf("StepLR should have decayed lr, got %v", lr)
	}
}

func TestScanModelAndDecideD2(t *testing.T) {
	for _, name := range models.Names() {
		w := models.MustBuild(name, 1)
		if got := ScanModel(w.Net); got != w.UsesVendorKernels {
			t.Fatalf("%s: ScanModel = %v, flag = %v", name, got, w.UsesVendorKernels)
		}
		if DecideD2(w.Net) != !w.UsesVendorKernels {
			t.Fatalf("%s: DecideD2 inconsistent", name)
		}
	}
}

func TestEvaluateSanity(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	j := mustJob(t, cfg, "vgg19", EvenPlacement(2, device.V100))
	if err := j.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	res := j.Evaluate()
	if res.Overall < 0 || res.Overall > 1 {
		t.Fatalf("overall accuracy %v", res.Overall)
	}
	if len(res.PerClass) != 10 {
		t.Fatalf("per-class entries %d", len(res.PerClass))
	}
	// evaluation must not disturb training: two evaluations agree
	a := j.Evaluate()
	b := j.Evaluate()
	if a.Overall != b.Overall {
		t.Fatal("repeated evaluation must be stable")
	}
	// detached evaluation also works
	j.Detach()
	_ = j.Evaluate()
}

func TestDeterminismString(t *testing.T) {
	if DetNone.String() != "none" || D0.String() != "D0" || D1.String() != "D1" {
		t.Fatal("level names")
	}
	if Determinism(9).String() == "" {
		t.Fatal("unknown level should render")
	}
}

// TestParsePlacement: the one placement parser accepts type names in any
// case with a default count of 1, and rejects unknown types, counts below 1
// and placements Validate refuses.
func TestParsePlacement(t *testing.T) {
	p, err := ParsePlacement(" v100:2, P100 ,t4:1", 4)
	want := []device.Type{device.V100, device.V100, device.P100, device.T4}
	if err != nil || !slices.Equal(p.Devices, want) || !slices.Equal(p.Assignment[3], []int{3}) {
		t.Fatalf("ParsePlacement = %+v, %v", p, err)
	}
	for _, spec := range []string{"V100:-2", "V100:0", "V100:x", "V100:", "A100:1", "", "V100:1,,P100:1", "V100:5", "V100:3,P100:2", "V100:99999999999"} {
		if p, err := ParsePlacement(spec, 4); err == nil {
			t.Errorf("ParsePlacement(%q) = %+v, want an error", spec, p)
		}
	}
}
