package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/optim"
	"repro/internal/pool"
)

// benchJob builds an attached 4-EST job on one simulated V100 for the named
// workload — the configuration the allocation-regression tests share.
func benchJob(tb testing.TB, name string) *Job {
	tb.Helper()
	return benchJobOn(tb, name, device.V100)
}

// benchJobOn is benchJob on the given GPUs.
func benchJobOn(tb testing.TB, name string, gpus ...device.Type) *Job {
	tb.Helper()
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	j, err := NewJob(cfg, name)
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Attach(EvenPlacement(4, gpus...)); err != nil {
		tb.Fatal(err)
	}
	return j
}

// stepAllocBound is the steady-state allocations per training step the
// regression tests allow, traced or not: 1.25× the 0 measured on go1.24 for
// vgg19, resnet50 and bert, on one V100 and on V100+P100 with the two GPUs'
// local phases fanned out over two goroutines, floored at 1. A step draws its
// tensor headers and buffers from the replicas' scopes, its input batch
// included (the loader fills it in place),
// and the fan-out starts goroutine bodies built once per placement. Heap
// batches again would read 16, heap headers hundreds.
const stepAllocBound = 1

// stepAllocCases are the jobs the regression tests step: every model on one
// V100, where the GPU's phase runs on the caller, and on V100+P100 at width
// 2, where the P100's runs on a goroutine of the fan-out.
var stepAllocCases = []struct {
	name  string
	model string
	gpus  []device.Type
}{
	{"vgg19", "vgg19", []device.Type{device.V100}},
	{"resnet50", "resnet50", []device.Type{device.V100}},
	{"bert", "bert", []device.Type{device.V100}},
	{"vgg19-V100+P100", "vgg19", []device.Type{device.V100, device.P100}},
	{"resnet50-V100+P100", "resnet50", []device.Type{device.V100, device.P100}},
	{"bert-V100+P100", "bert", []device.Type{device.V100, device.P100}},
}

// stepAllocs warms j up with five steps, then returns the average
// allocations of twenty more, failing t if an arena buffer drawn during them
// is still out at their end. Replica 0 alone draws activations from the
// arena, the other replicas' scopes keeping theirs from step to step, so how
// the GPUs' phases interleave cannot reach those; what each phase still
// shares the arena for is the scratch a kernel or layer hands back before
// its call returns. The warm-up runs on two Ps, so
// two GPUs' phases compute at once, as they do at the default width, and the
// arena grows to hold both phases' scratch out together. AllocsPerRun then
// runs the steps on one P, where a phase preempted mid-call interleaves with
// the other: on a one-P warm-up, that could reach the peak first and count
// the buffers it adds; on more Ps, the buffers left in the other Ps' private
// pool slots are out of its reach.
func stepAllocs(t *testing.T, j *Job) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if err := j.RunSteps(5); err != nil {
		t.Fatal(err)
	}
	before := pool.Stats()
	avg := testing.AllocsPerRun(20, func() {
		if err := j.RunStep(); err != nil {
			t.Fatal(err)
		}
	})
	// Leak check: everything drawn from the arena during the steps must
	// have been returned by their step boundaries.
	after := pool.Stats()
	if leaked := (after.Gets - after.Puts) - (before.Gets - before.Puts); leaked != 0 {
		t.Fatalf("arena leak: %d buffers outstanding after %d steps", leaked, j.GlobalStep())
	}
	t.Logf("%v allocations per step", avg)
	return avg
}

// TestTrainStepAllocRegression pins the steady-state allocation count of a
// pooled training step so regressions reintroducing per-op `make` calls on
// the hot path fail loudly; a regression to per-op allocation blows past the
// bound by orders of magnitude.
func TestTrainStepAllocRegression(t *testing.T) {
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
			if avg := stepAllocs(t, benchJobOn(t, tc.model, tc.gpus...)); avg > stepAllocBound {
				t.Fatalf("steady-state allocs/step = %.2f, want <= %d", avg, stepAllocBound)
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

// TestPerParamSetsAllocIndependentOfParamCount: an EST's gradient set, which
// its first local step allocates, and the optimizer's moments are one block
// each, so what they cost does not grow with the parameter tensors — neumf's
// and bert's cost the same count, though bert has several times the tensors.
// Each tensor used to be a buffer and a header of its own.
func TestPerParamSetsAllocIndependentOfParamCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	// a collection would empty the arena's pools, and refilling them would
	// count as the step's
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	first, moments, params := map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, name := range []string{"neumf", "bert"} {
		j := benchJob(t, name)
		if err := j.RunSteps(2); err != nil {
			t.Fatal(err)
		}
		params[name] = len(j.grads)
		// a steady-state step allocates nothing, so what a step whose ESTs
		// all start without gradient sets allocates is their four first steps'
		first[name] = testing.AllocsPerRun(20, func() {
			for _, est := range j.ests {
				est.Gradients = nil
			}
			if err := j.RunStep(); err != nil {
				t.Fatal(err)
			}
		})
		moments[name] = testing.AllocsPerRun(20, func() { optim.NewSGD(j.replicas[0].params, 0.1, 0.9, 0) })
	}
	t.Logf("first local steps %v, NewSGD %v allocations for %v parameter tensors", first, moments, params)
	if params["bert"] < 2*params["neumf"] {
		t.Fatalf("bert has %d parameter tensors, neumf %d: the comparison needs a spread", params["bert"], params["neumf"])
	}
	if first["bert"] != first["neumf"] {
		t.Fatalf("the ESTs' first local steps allocate %v objects for neumf and %v for bert: the count grows with the tensors", first["neumf"], first["bert"])
	}
	if moments["bert"] != moments["neumf"] {
		t.Fatalf("NewSGD allocates %v objects for neumf and %v for bert: the count grows with the tensors", moments["neumf"], moments["bert"])
	}
}
