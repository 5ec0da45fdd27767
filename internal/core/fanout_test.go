package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/kernels"
)

// fanOutPlacements are the placements the sweep below rotates through: no
// fan-out, two unlike GPUs, one EST per GPU, and an uneven split whose busy
// GPU hosts non-adjacent ranks.
func fanOutPlacements() []Placement {
	v, p := device.V100, device.P100
	return []Placement{
		EvenPlacement(4, v),
		EvenPlacement(4, v, p),
		EvenPlacement(4, v, v, v, v),
		{Devices: []device.Type{v, v}, Assignment: [][]int{{0, 2, 3}, {1}}},
	}
}

// fanOutCfg is D1+D2 (the heterogeneous placement needs it) at batch 2, which
// keeps the 48-run sweep inside a few seconds.
func fanOutCfg() Config {
	cfg := testCfg(D1, true, 4)
	cfg.BatchPerEST = 2
	return cfg
}

// fanOutSchedule runs 12 steps of model starting on placement pi: four
// steps, a live migration to the next placement of the table (replicas
// survive it), four steps, a stop-restart Scale back (replicas start over),
// four steps.
func fanOutSchedule(t *testing.T, model string, pi int) *Job {
	t.Helper()
	ps := fanOutPlacements()
	j := mustJob(t, fanOutCfg(), model, ps[pi])
	for _, reconfigure := range []func() error{
		func() error { return j.ScaleLive(ps[(pi+1)%len(ps)]) },
		func() error { return j.Scale(ps[pi]) },
		func() error { return nil },
	} {
		if err := j.RunSteps(4); err != nil {
			t.Fatal(err)
		}
		if err := reconfigure(); err != nil {
			t.Fatal(err)
		}
	}
	return j
}

func lossBits(j *Job) string {
	var b strings.Builder
	for _, l := range j.LastLosses() {
		fmt.Fprintf(&b, "%08x ", math.Float32bits(l))
	}
	return b.String()
}

// TestFanOutInvisibleToBits is the contract of the per-GPU fan-out: however
// many cores there are, however many GPUs compute at once, and whichever
// placement the ESTs sit on, an elastic run ends on the parameters and
// losses of the plain serial run on one V100, and on the checkpoint bytes of
// its own schedule run one GPU at a time. `make race` runs it: the GPUs'
// replicas then fill and rewind their scopes' header slabs concurrently.
func TestFanOutInvisibleToBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer kernels.SetParallelism(0)
	for _, model := range []string{"resnet50", "bert"} {
		kernels.SetParallelism(1)
		ref := runSteps(t, fanOutCfg(), model, EvenPlacement(4, device.V100), 12)
		wantHash, wantLosses := ref.ParamsHash(), lossBits(ref)

		serialCkpt := make([][]byte, len(fanOutPlacements()))
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for _, width := range []int{1, 0} {
				kernels.SetParallelism(width)
				for pi := range serialCkpt {
					name := fmt.Sprintf("%s/procs%d/width%d/placement%d", model, procs, width, pi)
					j := fanOutSchedule(t, model, pi)
					if got := j.ParamsHash(); got != wantHash {
						t.Fatalf("%s: params hash %016x, serial single-GPU run %016x", name, got, wantHash)
					}
					if got := lossBits(j); got != wantLosses {
						t.Fatalf("%s: losses %s, serial single-GPU run %s", name, got, wantLosses)
					}
					ck := j.Checkpoint()
					if serialCkpt[pi] == nil {
						serialCkpt[pi] = ck // procs 1, width 1 comes first
					} else if !bytes.Equal(ck, serialCkpt[pi]) {
						t.Fatalf("%s: checkpoint differs from the one-GPU-at-a-time run of the same schedule", name)
					}
				}
			}
		}
	}
}

// TestRunStepPanicReachesCaller: a panic inside a GPU's local phase — here
// the loader refusing an EST whose cursor was pushed ahead — surfaces on
// RunStep's goroutine, where a caller's recover can see it, whether the
// phase ran on the caller or on a goroutine of the fan-out; and when several
// GPUs panic, the lowest worker index wins.
func TestRunStepPanicReachesCaller(t *testing.T) {
	defer kernels.SetParallelism(0)
	for _, tc := range []struct {
		width   int
		skewed  []int // ranks whose cursor is pushed one step ahead
		wantEST string
	}{
		{width: 1, skewed: []int{2}, wantEST: "EST 2"},
		{width: 2, skewed: []int{2}, wantEST: "EST 2"},    // worker 1, a child goroutine
		{width: 2, skewed: []int{3, 1}, wantEST: "EST 1"}, // both workers; worker 0 wins
	} {
		kernels.SetParallelism(tc.width)
		j := mustJob(t, testCfg(D1, false, 4), "neumf", EvenPlacement(4, device.V100, device.V100))
		if err := j.RunStep(); err != nil {
			t.Fatal(err)
		}
		for _, r := range tc.skewed {
			j.loader.AdvanceTo(r, j.step+1)
		}
		var got any
		func() {
			defer func() { got = recover() }()
			_ = j.RunStep()
		}()
		if msg, _ := got.(string); !strings.Contains(msg, tc.wantEST+" consuming step") {
			t.Fatalf("width %d, skewed %v: recovered %v, want the loader's %s panic", tc.width, tc.skewed, got, tc.wantEST)
		}
	}
}

// TestFanOutLeavesNoGoroutine: the fan-out's goroutines are started per step
// and have all returned once RunStep has, so 50 width-2 steps leave the
// goroutine count where it was. A goroutine that has signalled the join may
// still be unwinding for an instant, so the count gets a second to settle;
// a pool of workers kept alive between steps never would.
func TestFanOutLeavesNoGoroutine(t *testing.T) {
	defer kernels.SetParallelism(0)
	kernels.SetParallelism(2)
	j := mustJob(t, testCfg(D1, true, 4), "neumf", EvenPlacement(4, device.V100, device.P100))
	if err := j.RunStep(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := j.RunSteps(50); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after != before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after != before {
		t.Fatalf("%d goroutines before 50 width-2 steps, %d after", before, after)
	}
}
