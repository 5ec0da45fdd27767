package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/pool"
)

// benchJob builds an attached 4-EST job on one simulated V100 for the named
// workload — the configuration the allocation-regression tests share.
func benchJob(tb testing.TB, name string) *Job {
	tb.Helper()
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	j, err := NewJob(cfg, name)
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Attach(EvenPlacement(4, device.V100)); err != nil {
		tb.Fatal(err)
	}
	return j
}

// stepAllocBounds are the steady-state allocations per training step the
// regression tests allow, traced or not: 1.25× the 17 measured on go1.24 for
// vgg19, resnet50 and bert alike. Tensor headers come from the replicas'
// scopes, so what a step still allocates is the loader's batch for each of
// the four ESTs (its header, data, labels and queue entry) and the step's
// gradient-set list — nothing that grows with the model. The datasets build
// their item shape once, so a batch no longer allocates it (21 before).
// Before the header slab, a step allocated one header per intermediate: 221
// (vgg19) and 289 (resnet50).
var stepAllocBounds = map[string]float64{
	"vgg19":    21,
	"resnet50": 21,
	"bert":     21,
}

// TestTrainStepAllocRegression pins the steady-state allocation count of a
// pooled training step so regressions reintroducing per-op `make` calls on
// the hot path fail loudly; a regression to per-op allocation blows past the
// bounds by orders of magnitude.
func TestTrainStepAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression needs steady-state warmup")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	for name, bound := range stepAllocBounds {
		t.Run(name, func(t *testing.T) {
			j := benchJob(t, name)
			// Warm the arena out of the measurement.
			if err := j.RunSteps(2); err != nil {
				t.Fatal(err)
			}
			before := pool.Stats()
			avg := testing.AllocsPerRun(3, func() {
				if err := j.RunStep(); err != nil {
					t.Fatal(err)
				}
			})
			after := pool.Stats()
			if avg > bound {
				t.Fatalf("steady-state allocs/step = %.0f, want <= %.0f", avg, bound)
			}
			// Leak check: everything drawn from the arena during the steps
			// must have been returned by their step boundaries.
			if leaked := (after.Gets - after.Puts) - (before.Gets - before.Puts); leaked != 0 {
				t.Fatalf("arena leak: %d buffers outstanding after %d steps", leaked, j.GlobalStep())
			}
		})
	}
}

// TestBuildShardsAllocsIndependentOfShardCount: BuildShards encodes every
// group into one buffer, so what it allocates does not grow with the number
// of shards — neumf's and bert's builds cost the same count, though bert has
// several times the groups. Each group used to get a buffer of its own.
func TestBuildShardsAllocsIndependentOfShardCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	allocs := map[string]float64{}
	groups := map[string]int{}
	for _, name := range []string{"neumf", "bert"} {
		j := benchJob(t, name)
		if err := j.RunSteps(1); err != nil {
			t.Fatal(err)
		}
		m, _ := j.BuildShards()
		groups[name] = len(m.Entries)
		allocs[name] = testing.AllocsPerRun(20, func() { j.BuildShards() })
	}
	t.Logf("BuildShards allocations: %v for %v groups", allocs, groups)
	if groups["bert"] < 2*groups["neumf"] {
		t.Fatalf("bert has %d groups, neumf %d: the comparison needs a spread", groups["bert"], groups["neumf"])
	}
	if allocs["bert"] != allocs["neumf"] {
		t.Fatalf("BuildShards allocates %v objects for neumf and %v for bert: the count grows with the shards", allocs["neumf"], allocs["bert"])
	}
}
