package easyscale

import (
	"testing"

	"repro/internal/controlplane"
)

// TestAutoScaledBitwiseConsistent: the scheduler-driven live loop — job
// starts on whatever is free, scales out as the pool allows — still ends
// bitwise identical to fixed-DoP DDP.
func TestAutoScaledBitwiseConsistent(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4

	ref, err := NewJob(cfg, "electra")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Attach(EvenPlacement(4, V100, V100, V100, V100)); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSteps(12); err != nil {
		t.Fatal(err)
	}

	job, err := NewJob(cfg, "electra")
	if err != nil {
		t.Fatal(err)
	}
	// scarce pool: the scheduler starts the job small and scales out
	free := Resources{V100: 1, P100: 1, T4: 2}
	a, err := RunAutoScaled(job, free, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Attached() {
		t.Fatal("job should hold GPUs")
	}
	if !ParamsEqual(ref, job) {
		t.Fatal("auto-scaled job diverged from fixed-DoP DDP")
	}
	if a.Intra.Current().Total() == 0 {
		t.Fatal("scheduler should have allocated resources")
	}
}

// TestAutoScalerScaleOutHappens: with a growing pool the job's allocation
// grows toward maxP GPUs.
func TestAutoScalerScaleOutHappens(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	job, err := NewJob(cfg, "bert")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAutoScaler(job, Resources{V100: 1})
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got := a.Intra.Current().Total(); got != 1 {
		t.Fatalf("initial allocation %d, want 1", got)
	}
	if err := job.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	// more GPUs appear
	a.Inter.Release(Resources{V100: 3})
	changed, err := a.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("scheduler should scale out with new free GPUs")
	}
	if got := a.Intra.Current().Total(); got <= 1 {
		t.Fatalf("allocation after scale-out %d, want > 1", got)
	}
	if err := job.RunSteps(2); err != nil {
		t.Fatal(err)
	}
}

// TestAutoScalerShrink: revocation scales the live job in (and can evict it
// entirely) without losing training state.
func TestAutoScalerShrink(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BatchPerEST = 4
	job, err := NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAutoScaler(job, Resources{V100: 2})
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := job.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Shrink(Resources{V100: 1}); err != nil {
		t.Fatal(err)
	}
	if got := job.Placement().Devices; len(got) != 1 {
		t.Fatalf("after shrink: %d devices, want 1", len(got))
	}
	if err := job.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	step := job.GlobalStep()
	// full eviction parks the job without losing progress
	if err := a.Shrink(Resources{V100: 2}); err != nil {
		t.Fatal(err)
	}
	if job.Attached() {
		t.Fatal("job should be detached after full revocation")
	}
	if job.GlobalStep() != step {
		t.Fatal("eviction must not lose progress")
	}
	// and can come back later
	a.Inter.Release(Resources{T4: 1})
	if !job.Cfg.D2 {
		t.Skip("needs D2 for T4 after V100")
	}
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if !job.Attached() {
		t.Fatal("job should re-attach when GPUs free up")
	}
	if err := job.RunSteps(2); err != nil {
		t.Fatal(err)
	}
}

// TestAutoScalerHomogeneousPolicy: a vendor-kernel model without D2 stays on
// one GPU type.
func TestAutoScalerHomogeneousPolicy(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	cfg.D2 = false
	job, err := NewJob(cfg, "vgg19")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAutoScaler(job, Resources{V100: 2, P100: 2, T4: 2})
	if !a.HomogeneousOnly {
		t.Fatal("vgg19 without D2 must be homogeneous-only")
	}
	for i := 0; i < 4; i++ {
		if _, err := a.Rebalance(); err != nil {
			t.Fatal(err)
		}
		if job.Attached() {
			if err := job.RunSteps(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !job.Placement().Homogeneous() {
		t.Fatalf("homogeneous-only job got mixed GPUs: %v", job.Placement().Devices)
	}
}

// TestAutoScalerObserveFallback: an observed slowdown after a grant makes
// the scheduler fall back, releasing the new GPUs to the pool, and the job
// keeps training consistently on the previous resources.
func TestAutoScalerObserveFallback(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	job, err := NewJob(cfg, "electra")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAutoScaler(job, Resources{V100: 1})
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := job.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	a.Inter.Release(Resources{V100: 3})
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}
	grew := a.Intra.Current().Total()
	if grew <= 1 {
		t.Fatalf("expected scale-out, got %d GPUs", grew)
	}
	// observed throughput collapses → fallback
	fell, err := a.Observe(a.Intra.CurrentPlan().Throughput * 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !fell {
		t.Fatal("expected fallback on slowdown")
	}
	if a.Intra.Current().Total() != 1 {
		t.Fatalf("fallback should restore 1 GPU, got %d", a.Intra.Current().Total())
	}
	if a.Inter.Free()[V100] != grew-1 {
		t.Fatalf("released GPUs missing from pool: free=%v", a.Inter.Free())
	}
	if err := job.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	// healthy observation: no fallback
	if fell, _ := a.Observe(a.Intra.CurrentPlan().Throughput); fell {
		t.Fatal("healthy throughput must not fall back")
	}
}

// TestThroughputFeedbackStaysWithItsJob: a measurement biased enough to
// refresh one live job's performance model changes that job's companion and
// nothing else — not the process-wide capability every later plane job and
// cluster.Simulate read through CapabilityFor.
func TestThroughputFeedbackStaysWithItsJob(t *testing.T) {
	before := controlplane.CapabilityFor("neumf")[V100]
	cfg := DefaultConfig(2)
	cfg.BatchPerEST = 2
	job, err := NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAutoScaler(job, Resources{V100: 2})
	if _, err := a.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// a healthy measurement first, so the biased one refreshes the model
	// without also falling back to the zero GPUs the job started from
	for _, ratio := range []float64{1, 0.1} {
		if _, err := a.Observe(a.Intra.CurrentPlan().Throughput * ratio); err != nil {
			t.Fatal(err)
		}
	}
	if a.Intra.Companion.Caps[V100] == before {
		t.Fatal("setup: the measurement did not refresh the job's own model")
	}
	if got := controlplane.CapabilityFor("neumf")[V100]; got != before {
		t.Fatalf("CapabilityFor(neumf)[V100] moved from %v to %v on one job's feedback", before, got)
	}
}
