package dist

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pool"
)

// churnSchedule is the frozen benchmark's churn_live op: bert, four ESTs at
// batch 4, six two-step phases on 4, 2, 2 mixed, 2, 2 mixed and 1 workers —
// five scale events.
func churnSchedule() (core.Config, []Phase) {
	cfg := core.DefaultConfig(4)
	cfg.BatchPerEST = 4
	cfg.Seed = 1
	v, p := device.V100, device.P100
	var phases []Phase
	for _, devs := range [][]device.Type{{v, v, v, v}, {v, v}, {v, p}, {v, v}, {v, p}, {v}} {
		phases = append(phases, Phase{Placement: core.EvenPlacement(4, devs...), Steps: 2})
	}
	return cfg, phases
}

// TestChurnOpAllocBudget pins what one live-migrating churn op allocates —
// objects and bytes, counted by the runtime, no clock involved — at 1.25× the
// readings taken when the data plane got its per-connection buffers: 16,650
// objects and 3.2 MB on go1.24 (43,400 and 8.73 MB before; a run in which the
// collector empties the arena mid-op reads up to 3.35 MB). A frame, gradient
// or shard path that goes back to allocating per step or per shard costs far
// more than the margin.
func TestChurnOpAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven six-phase elastic jobs")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	const (
		maxMallocs = 16650 * 5 / 4
		maxBytes   = 3200000 * 5 / 4
	)
	cfg, phases := churnSchedule()
	op := func() {
		if _, err := Run(cfg, "bert", phases, WithLiveMigration()); err != nil {
			t.Fatal(err)
		}
	}
	op()
	op()
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		arena := pool.Stats()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("run %d: %d mallocs, %d bytes", i, mallocs, bytes)
		if mallocs > maxMallocs || bytes > maxBytes {
			t.Errorf("run %d: %d mallocs and %d bytes, budget %d and %d", i, mallocs, bytes, maxMallocs, maxBytes)
		}
		// every arena buffer the data plane borrows for a step goes back
		s := pool.Stats()
		if leaked := (s.Gets - s.Puts) - (arena.Gets - arena.Puts); leaked != 0 {
			t.Errorf("run %d: %d arena buffers outstanding after the run", i, leaked)
		}
	}
}
