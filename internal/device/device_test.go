package device

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

// stock is a stock framework's out-of-the-box behaviour: atomic kernels and
// profiling-based selection.
var stock = Config{Selection: SelectProfiled}

func TestSpecOf(t *testing.T) {
	for _, typ := range AllTypes() {
		s := SpecOf(typ)
		if s.Type != typ || s.MemoryMB <= 0 || s.PeakGFLOPS <= 0 || s.KernelBlock <= 0 {
			t.Fatalf("bad spec for %v: %+v", typ, s)
		}
	}
	if V100.String() != "V100" || P100.String() != "P100" || T4.String() != "T4" {
		t.Fatal("type names wrong")
	}
}

func TestSpecOfUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpecOf(Type(99))
}

func TestHardwareSpecificBlocksDiffer(t *testing.T) {
	cfg := Config{DeterministicKernels: true, Selection: SelectHeuristic}
	blocks := map[int]bool{}
	for _, typ := range AllTypes() {
		blocks[New(typ, cfg).KernelBlock()] = true
	}
	if len(blocks) != 3 {
		t.Fatalf("heuristic kernel blocks must differ per GPU type, got %v", blocks)
	}
}

func TestFixedAlgoBlockIdenticalAcrossTypes(t *testing.T) {
	cfg := Config{DeterministicKernels: true, Selection: SelectFixedAlgo}
	for _, typ := range AllTypes() {
		if b := New(typ, cfg).KernelBlock(); b != AgnosticBlock {
			t.Fatalf("fixed-algo block on %v = %d, want %d", typ, b, AgnosticBlock)
		}
	}
}

func TestProfiledSelectionReturnsCandidate(t *testing.T) {
	d := New(V100, Config{Selection: SelectProfiled})
	b := d.KernelBlock()
	if b != 16 && b != 32 && b != 64 {
		t.Fatalf("profiled block %d not a candidate", b)
	}
	// caches
	if d.KernelBlock() != b {
		t.Fatal("profiled selection should be cached per device")
	}
}

func TestMemoryAccounting(t *testing.T) {
	d := New(V100, stock)
	if err := d.Alloc(1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(2000); err != nil {
		t.Fatal(err)
	}
	if d.UsedMB() != 3000 || d.PeakMB() != 3000 {
		t.Fatalf("used=%v peak=%v", d.UsedMB(), d.PeakMB())
	}
	d.Free(2500)
	if d.UsedMB() != 500 || d.PeakMB() != 3000 {
		t.Fatalf("after free: used=%v peak=%v", d.UsedMB(), d.PeakMB())
	}
}

func TestAllocOOM(t *testing.T) {
	d := New(T4, stock)
	if err := d.Alloc(float64(d.Spec.MemoryMB) + 1); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
	// partial fills then overflow
	if err := d.Alloc(float64(d.Spec.MemoryMB) - 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(11); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM on overflow, got %v", err)
	}
}

func TestAllocNeverExceedsCapacityProperty(t *testing.T) {
	f := func(allocs []uint16) bool {
		d := New(P100, stock)
		for _, a := range allocs {
			_ = d.Alloc(float64(a))
			if d.UsedMB() > float64(d.Spec.MemoryMB) {
				return false
			}
		}
		return d.PeakMB() <= float64(d.Spec.MemoryMB)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	d := New(V100, stock)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	d.Free(100)
}

func TestNewWithMemory(t *testing.T) {
	d := NewWithMemory(V100, 32*1024, stock)
	if d.Spec.MemoryMB != 32*1024 {
		t.Fatal("memory override not applied")
	}
	if SpecOf(V100).MemoryMB != 16*1024 {
		t.Fatal("override leaked into the shared spec table")
	}
}

func TestChargeFLOPsOrdersTypesBySpeed(t *testing.T) {
	cfg := Config{DeterministicKernels: true, Selection: SelectHeuristic}
	var times []time.Duration
	for _, typ := range AllTypes() {
		d := New(typ, cfg)
		d.ChargeFLOPs(1e12, 1.0)
		times = append(times, d.Now())
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Fatalf("expected V100 < P100 < T4 step time, got %v", times)
	}
}

func TestConvEfficiencyPenalty(t *testing.T) {
	vendor := New(V100, Config{Selection: SelectHeuristic})
	agnostic := New(V100, Config{Selection: SelectFixedAlgo})
	if vendor.ConvEfficiency() != 1.0 {
		t.Fatal("vendor conv efficiency should be 1.0")
	}
	if e := agnostic.ConvEfficiency(); e >= 1.0 || e <= 0 {
		t.Fatalf("agnostic conv efficiency %v should be in (0,1)", e)
	}
	if e := agnostic.GemmEfficiency(); e < 0.9 {
		t.Fatalf("agnostic gemm efficiency %v should be near parity", e)
	}
}

func TestChargeTimeAndReset(t *testing.T) {
	d := New(V100, stock)
	d.ChargeTime(5 * time.Millisecond)
	d.ChargeTime(-time.Second) // ignored
	if d.Now() != 5*time.Millisecond {
		t.Fatalf("Now=%v", d.Now())
	}
	d.ChargeFLOPs(-5, 1) // ignored
	if d.Now() != 5*time.Millisecond {
		t.Fatal("negative flops must not charge")
	}
}

func TestAtomicWorkers(t *testing.T) {
	if w := New(V100, stock).AtomicWorkers(); w != 8 {
		t.Fatalf("V100 atomic workers = %d", w)
	}
	if w := New(T4, stock).AtomicWorkers(); w != 4 {
		t.Fatalf("T4 atomic workers = %d", w)
	}
}

func TestSelectionString(t *testing.T) {
	if SelectHeuristic.String() == "" || SelectProfiled.String() == "" || SelectFixedAlgo.String() == "" {
		t.Fatal("empty selection names")
	}
	if Selection(9).String() == "" || Type(9).String() == "" {
		t.Fatal("unknown values should still render")
	}
}
