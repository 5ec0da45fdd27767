package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// tracedElasticHash runs the same two-phase elastic schedule (2 V100 → 1
// V100, with a mid-run Scale) and returns the final params hash. The first
// phase's two GPUs compute concurrently, so with attach set their goroutines
// record into the per-job tracer at the same time.
func tracedElasticHash(t *testing.T, attach bool) uint64 {
	t.Helper()
	kernels.SetParallelism(2)
	defer kernels.SetParallelism(0)
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	j, err := NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	if attach {
		j.SetTracer(obs.New())
	}
	if err := j.Attach(EvenPlacement(4, device.V100, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(4); err != nil {
		t.Fatal(err)
	}
	if err := j.Scale(EvenPlacement(4, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(4); err != nil {
		t.Fatal(err)
	}
	return j.ParamsHash()
}

// TestTracingInvisibleToNumerics is the observability layer's core contract:
// the final parameters of an elastic run are bitwise identical with tracing
// absent and attached to the job.
func TestTracingInvisibleToNumerics(t *testing.T) {
	base := tracedElasticHash(t, false)
	if got := tracedElasticHash(t, true); got != base {
		t.Fatalf("job-attached tracing changed the params hash: %x vs %x", got, base)
	}
}

// TestTracerSurvivesScale: Scale rebuilds the job in place from an on-demand
// checkpoint; the attached tracer must ride along so the trace shows both
// sides of the scale event, and the decision log must record the scale.
func TestTracerSurvivesScale(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BatchPerEST = 2
	j, err := NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	j.SetTracer(tr)
	if err := j.Attach(EvenPlacement(2, device.V100, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	if err := j.Scale(EvenPlacement(2, device.V100)); err != nil {
		t.Fatal(err)
	}
	if j.Tracer() != tr {
		t.Fatal("Scale dropped the attached tracer")
	}
	if err := j.RunSteps(2); err != nil {
		t.Fatal(err)
	}

	names := map[string]int{}
	for _, track := range tr.Spans() {
		for _, s := range track {
			names[s.Name]++
		}
	}
	// core.finish-step is the distributed half-step path; dist's run test
	// covers it
	for _, want := range []string{
		"core.attach", "core.scale", "core.local-step", "core.compute",
		"core.switch-in", "core.switch-out", "core.local-phases", "core.global-step",
	} {
		if names[want] == 0 {
			t.Errorf("no %q spans recorded (got %v)", want, names)
		}
	}
	// both phases must have contributed global-step spans on the run track
	if names["core.global-step"] != 4 {
		t.Errorf("core.global-step spans = %d, want 4 (2 per phase)", names["core.global-step"])
	}
	var steps, switches int64
	for _, c := range tr.Counters() {
		switch c.Name() {
		case "core.global-steps":
			steps = c.Value()
		case "core.ctx-switches":
			switches = c.Value()
		}
	}
	if steps != 4 {
		t.Errorf("core.global-steps counter = %d, want 4", steps)
	}
	if switches == 0 {
		t.Error("core.ctx-switches counter never bumped")
	}
}

// TestSetTracerDetaches: SetTracer(nil) turns instrumentation back into the
// nil-check path and Tracer() reports it.
func TestSetTracerDetaches(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BatchPerEST = 2
	j, err := NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	j.SetTracer(tr)
	if j.Tracer() != tr {
		t.Fatal("Tracer() should return the attached tracer")
	}
	j.SetTracer(nil)
	if j.Tracer() != nil {
		t.Fatal("SetTracer(nil) should detach")
	}
	if err := j.Attach(EvenPlacement(2, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(2); err != nil {
		t.Fatal(err)
	}
	for ti, track := range tr.Spans() {
		if len(track) != 0 {
			t.Fatalf("detached tracer still received %d spans on track %d", len(track), ti)
		}
	}
}

// TestTrainStepAllocRegressionTraced re-runs the steady-state allocation
// bound of TestTrainStepAllocRegression with the job tracer attached, on the
// same jobs and the same bound: the enabled hot path writes into
// pre-allocated rings and must not add a single steady-state allocation.
func TestTrainStepAllocRegressionTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression needs steady-state warmup")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	defer kernels.SetParallelism(0)
	kernels.SetParallelism(2)
	for _, tc := range stepAllocCases {
		t.Run(tc.name, func(t *testing.T) {
			j := benchJobOn(t, tc.model, tc.gpus...)
			tr := obs.New(obs.WithRingCap(1 << 16))
			j.SetTracer(tr)
			if avg := stepAllocs(t, j); avg > stepAllocBound {
				t.Fatalf("traced steady-state allocs/step = %.2f, want <= %d", avg, stepAllocBound)
			}
			// the run must actually have been traced
			total := 0
			for _, track := range tr.Spans() {
				total += len(track)
			}
			if total == 0 {
				t.Fatal("no spans recorded — the bound proved nothing")
			}
		})
	}
}
