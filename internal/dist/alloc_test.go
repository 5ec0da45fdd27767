package dist

import (
	"bytes"
	"runtime"
	"testing"
	"time"

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
// readings taken when a net's parameters became two blocks: 2,390 objects
// and 2.64 MB on go1.24 (3,300 with a tensor per parameter and gradient;
// 4,310 before a job's per-parameter sets were blocks; 5,800 and 2.70 MB
// before a training step stopped allocating; 9,240 and 2.73 MB with a frame
// and a buffer per shard; 43,400 and 8.73 MB before the data plane got its
// per-connection buffers). A frame, gradient, shard or parameter path that
// goes back to allocating per step, per shard or per tensor costs more than
// the margin.
func TestChurnOpAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven six-phase elastic jobs")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	const (
		maxMallocs = 2390 * 5 / 4
		maxBytes   = 2640000 * 5 / 4
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

// TestConnFramesAllocateNothing: ReadFrame and WriteFrame on a conn keep the
// header in the conn and the payload in its buffers, so a steady-state frame
// allocates nothing. The header used to escape to the heap on every call.
func TestConnFramesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	loop := &byteConn{}
	loop.r = &loop.w // what the conn writes, it reads back
	c := withDeadline(loop, time.Second)
	payload := bytes.Repeat([]byte{3}, 200)
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(c, MsgGrads, payload); err != nil {
			t.Fatal(err)
		}
		if got, err := Expect(c, MsgGrads); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame read back as %d bytes, err %v", len(got), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a frame written and read on a conn allocates %v objects, want 0", allocs)
	}
}
