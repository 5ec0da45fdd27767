package cluster

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/workload"
)

// paperInventory is the §5.2 testbed: 32 V100 + 16 P100 + 16 T4.
func paperInventory() sched.Resources {
	return sched.Resources{device.V100: 32, device.P100: 16, device.T4: 16}
}

func testTrace() []workload.JobSpec {
	return workload.Generate(40, 120, 7)
}

func TestCapabilityOrdering(t *testing.T) {
	c := controlplane.CapabilityFor("resnet50")
	if !(c[device.V100] > c[device.P100] && c[device.P100] > c[device.T4]) {
		t.Fatalf("capability should follow GPU speed: %v", c)
	}
	// cached: second call returns same map values
	c2 := controlplane.CapabilityFor("resnet50")
	if c2[device.V100] != c[device.V100] {
		t.Fatal("capability cache broken")
	}
	// lighter models have higher step rates
	if controlplane.CapabilityFor("neumf")[device.V100] <= controlplane.CapabilityFor("vgg19")[device.V100] {
		t.Fatal("neumf should step faster than vgg19")
	}
}

func TestModeNames(t *testing.T) {
	if YARNCS.String() != "YARN-CS" || EasyScaleHomo.String() != "EasyScale-homo" || EasyScaleHeter.String() != "EasyScale-heter" || Colocation.String() != "co-location" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

// TestEmptyTrace: nothing to schedule is a result, not a panic — every mode
// returns its zero Result, which is what `simcluster -jobs 0` prints.
func TestEmptyTrace(t *testing.T) {
	for _, m := range []Mode{YARNCS, EasyScaleHomo, EasyScaleHeter, Colocation} {
		res := Simulate(Config{Mode: m, Inventory: paperInventory()}, nil)
		if res.Mode != m {
			t.Errorf("%s: result carries mode %s", m, res.Mode)
		}
		if res.Finished != 0 || res.Unstarted != 0 || res.AvgJCT != 0 || res.Makespan != 0 || len(res.Timeline) != 0 {
			t.Errorf("%s: empty trace produced %+v", m, res)
		}
	}
}

// TestSimulateIsDeterministic: a mode run again on the same trace returns
// the same Result, its averages bit for bit. AvgJCT used to be summed over
// the JCTs map, in Go's randomized iteration order, and its last bits moved
// from run to run.
func TestSimulateIsDeterministic(t *testing.T) {
	jobs := workload.Generate(60, 30, 11)
	for _, m := range []Mode{YARNCS, EasyScaleHomo, EasyScaleHeter} {
		ref := Simulate(Config{Mode: m, Inventory: paperInventory()}, jobs)
		for run := 1; run < 5; run++ {
			r := Simulate(Config{Mode: m, Inventory: paperInventory()}, jobs)
			if math.Float64bits(r.AvgJCT) != math.Float64bits(ref.AvgJCT) || math.Float64bits(r.AvgQueue) != math.Float64bits(ref.AvgQueue) {
				t.Fatalf("%s run %d: AvgJCT %x AvgQueue %x, run 0 %x %x", m, run,
					math.Float64bits(r.AvgJCT), math.Float64bits(r.AvgQueue), math.Float64bits(ref.AvgJCT), math.Float64bits(ref.AvgQueue))
			}
			if !reflect.DeepEqual(r, ref) {
				t.Fatalf("%s run %d: Result differs from run 0", m, run)
			}
		}
	}
}

// TestMakespanIsLastFinishLessFirstArrival: when every job finishes, the
// makespan runs from the first arrival to the last finish. It used to end on
// the tick the last job finished, one tick before that job's FinishSec: 10 s
// short in every mode (YARN-CS on this trace: 91,676.7 s for 91,686.7).
func TestMakespanIsLastFinishLessFirstArrival(t *testing.T) {
	jobs := workload.Generate(60, 30, 11)
	for _, m := range []Mode{YARNCS, EasyScaleHomo, EasyScaleHeter} {
		r := Simulate(Config{Mode: m, Inventory: paperInventory()}, jobs)
		if r.Finished != len(jobs) {
			t.Fatalf("%s: %d of %d jobs finished", m, r.Finished, len(jobs))
		}
		first, last := math.Inf(1), math.Inf(-1)
		for _, j := range jobs {
			first, last = min(first, j.ArrivalSec), max(last, j.ArrivalSec+r.JCTs[j.ID])
		}
		if math.Abs(r.Makespan-(last-first)) > 1e-6 {
			t.Errorf("%s: makespan %.1f s, last finish less first arrival %.1f s", m, r.Makespan, last-first)
		}
	}
}

// TestUnstartedMeansNeverStarted: on one GPU, of two jobs too long for the
// 30-day cap, the first holds the GPU to the end and the second never gets
// it. Every mode reports the running job as neither finished nor unstarted.
func TestUnstartedMeansNeverStarted(t *testing.T) {
	jobs := []workload.JobSpec{
		{ID: "long", Model: "neumf", MaxP: 1, WorkSteps: 1e15, RequestedType: device.V100},
		{ID: "behind", Model: "neumf", MaxP: 1, ArrivalSec: 10, WorkSteps: 1e15, RequestedType: device.V100},
	}
	for _, m := range []Mode{YARNCS, EasyScaleHomo, EasyScaleHeter} {
		r := Simulate(Config{Mode: m, Inventory: sched.Resources{device.V100: 1}}, jobs)
		if r.Finished != 0 || r.Unstarted != 1 {
			t.Errorf("%s: finished %d, unstarted %d; want 0 and 1", m, r.Finished, r.Unstarted)
		}
	}
}

func TestYARNCompletesAllJobs(t *testing.T) {
	jobs := testTrace()
	res := Simulate(Config{Mode: YARNCS, Inventory: paperInventory()}, jobs)
	if res.Finished != len(jobs) {
		t.Fatalf("finished %d/%d (unstarted %d)", res.Finished, len(jobs), res.Unstarted)
	}
	if res.AvgJCT <= 0 || res.Makespan <= 0 {
		t.Fatalf("metrics: %+v", res)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("timeline empty")
	}
}

func TestEasyScaleCompletesAllJobs(t *testing.T) {
	jobs := testTrace()
	for _, mode := range []Mode{EasyScaleHomo, EasyScaleHeter} {
		res := Simulate(Config{Mode: mode, Inventory: paperInventory()}, jobs)
		if res.Finished != len(jobs) {
			t.Fatalf("%v finished %d/%d", mode, res.Finished, len(jobs))
		}
	}
}

// TestTraceExperimentShape is the Figure 14 shape: EasyScale improves both
// average JCT and makespan over YARN-CS substantially (the paper measures
// 8.3×/13.2× JCT and 2.5×/2.8× makespan).
func TestTraceExperimentShape(t *testing.T) {
	inv := paperInventory()
	var yJCT, hJCT, xJCT, yMk, hMk, xMk float64
	var hAlloc, xAlloc int
	for seed := uint64(11); seed <= 13; seed++ {
		jobs := workload.Generate(60, 30, seed)
		yarn := Simulate(Config{Mode: YARNCS, Inventory: inv}, jobs)
		homo := Simulate(Config{Mode: EasyScaleHomo, Inventory: inv}, jobs)
		heter := Simulate(Config{Mode: EasyScaleHeter, Inventory: inv}, jobs)
		yJCT += yarn.AvgJCT
		hJCT += homo.AvgJCT
		xJCT += heter.AvgJCT
		yMk += yarn.Makespan
		hMk += homo.Makespan
		xMk += heter.Makespan
		n := len(homo.Timeline)
		if m := len(heter.Timeline); m < n {
			n = m
		}
		for i := 0; i < n; i++ {
			hAlloc += homo.Timeline[i].Allocated
			xAlloc += heter.Timeline[i].Allocated
		}
	}
	// JCT: both EasyScale modes win by a large factor
	if yJCT/hJCT < 1.8 {
		t.Fatalf("EasyScale-homo JCT gain too small: YARN %v vs homo %v", yJCT/3, hJCT/3)
	}
	if yJCT/xJCT < 1.8 {
		t.Fatalf("EasyScale-heter JCT gain too small: YARN %v vs heter %v", yJCT/3, xJCT/3)
	}
	// makespan: both EasyScale modes win, heter at least matches homo
	if yMk/hMk < 1.3 {
		t.Fatalf("EasyScale-homo makespan gain too small: YARN %v vs homo %v", yMk/3, hMk/3)
	}
	if xMk > hMk*1.1 {
		t.Fatalf("heter makespan %v should be at least comparable to homo %v", xMk/3, hMk/3)
	}
	// heter allocates at least as many GPUs over time as homo (Figure 15)
	if xAlloc < hAlloc*9/10 {
		t.Fatal("heter should not allocate substantially fewer GPUs than homo")
	}
}

func TestEasyScaleEliminatesQueueing(t *testing.T) {
	jobs := workload.Generate(40, 30, 3)
	res := Simulate(Config{Mode: EasyScaleHeter, Inventory: paperInventory()}, jobs)
	yarn := Simulate(Config{Mode: YARNCS, Inventory: paperInventory()}, jobs)
	// gang scheduling queues for a long time under load; elastic jobs start
	// with whatever is free within a couple of scheduling rounds
	if res.AvgQueue > yarn.AvgQueue/3 {
		t.Fatalf("elastic queueing %v should be far below gang queueing %v", res.AvgQueue, yarn.AvgQueue)
	}
}

// TestColocationTwoDays is Figure 16 on the control plane at 3,000 V100s:
// day 1 runs the serving gangs alone, day 2 adds 2,000 production-mix
// training jobs over the day. Serving never waits: at every tick its gangs
// hold exactly ⌈demand/8⌉·8 GPUs. Day 1 has no elastic GPUs and no
// preemptions; on day 2 allocation and utilisation rise, serving reclaims
// from training, training refills within minutes, and every job finishes.
func TestColocationTwoDays(t *testing.T) {
	const total, day = 3000, 1440
	cfg := Config{Mode: Colocation, Inventory: sched.Resources{device.V100: total}}
	load := workload.ServingLoad(2*day, total, 42)
	jobs1 := workload.ServingGangs(load[:day])
	jobs2 := append(workload.ServingGangs(load[day:]), workload.GenerateProduction(2000, 60*day/2000.0, 42)...)
	day1, day2 := Simulate(cfg, jobs1), Simulate(cfg, jobs2)
	for d, r := range []Result{day1, day2} {
		if r.Waited != 0 {
			t.Errorf("day %d: %d serving gangs waited", d+1, r.Waited)
		}
		for i, s := range r.Timeline[:6*day] {
			if want := (load[d*day+i/6] + 7) / 8 * 8; s.Serving != want {
				t.Fatalf("day %d at %.0fs: serving holds %d GPUs, demand needs %d", d+1, s.Sec, s.Serving, want)
			}
		}
	}
	if day1.Finished != len(jobs1) || day2.Finished != len(jobs2) {
		t.Errorf("finished %d/%d on day 1 and %d/%d on day 2", day1.Finished, len(jobs1), day2.Finished, len(jobs2))
	}
	alloc1, util1, elastic1 := Means(day1.Timeline[:6*day], total)
	alloc2, util2, elastic2 := Means(day2.Timeline[:6*day], total)
	if elastic1 != 0 || day1.Preemptions != 0 {
		t.Fatalf("day 1 has %.0f elastic GPUs and %d preemptions, want none", elastic1, day1.Preemptions)
	}
	if alloc2 <= alloc1 || util2 <= util1 || elastic2 <= 0 {
		t.Fatalf("day 2 must raise allocation (%.3f → %.3f) and utilisation (%.3f → %.3f) with elastic GPUs (%.0f)",
			alloc1, alloc2, util1, util2, elastic2)
	}
	if rel := (util2 - util1) / util1; rel < 0.3 {
		t.Fatalf("utilisation gain %.2f too small (paper: +62.1%% relative)", rel)
	}
	if day2.Preemptions == 0 {
		t.Fatal("serving must reclaim borrowed GPUs on day 2")
	}
	refills := Refills(day2.Timeline[:6*day], total)
	if len(refills) == 0 || slices.Max(refills) > 6*60 {
		t.Fatalf("refills %v: want some, each within 6 minutes", refills)
	}
}

// TestColocationScaleInImmediate: serving demand jumps from 16 to 88 GPUs of
// a 96-GPU fleet while a training job borrows 64. The nine new serving gangs
// are admitted on the tick they arrive, preempting the borrower down to the
// 8 GPUs left, and training is back at its MaxP one tick after serving ends.
func TestColocationScaleInImmediate(t *testing.T) {
	const total = 96
	rate := 64 * controlplane.CapabilityFor("neumf")[device.V100]
	jobs := append(workload.ServingGangs([]int{16, 16, 16, 88, 88}),
		workload.JobSpec{ID: "train", Model: "neumf", MaxP: 64, WorkSteps: 600 * rate, RequestedType: device.V100})
	r := Simulate(Config{Mode: Colocation, Inventory: sched.Resources{device.V100: total}}, jobs)
	if r.Waited != 0 || r.Finished != len(jobs) {
		t.Fatalf("%d gangs waited, %d of %d jobs finished", r.Waited, r.Finished, len(jobs))
	}
	before, at := r.Timeline[17], r.Timeline[18] // 170 s and 180 s: the jump
	if before.Serving != 16 || before.Allocated-before.Serving != 64 {
		t.Fatalf("before the jump: serving %d, elastic %d; want 16 and 64", before.Serving, before.Allocated-before.Serving)
	}
	if at.Serving != 88 || at.Allocated != total {
		t.Fatalf("on the jump's tick: serving %d of %d allocated; want 88 of %d", at.Serving, at.Allocated, total)
	}
	if r.Preemptions == 0 {
		t.Fatal("the jump must preempt the borrower")
	}
	if s := r.Timeline[31]; s.Serving != 0 || s.Allocated != 64 {
		t.Fatalf("after serving ends: serving %d, elastic %d; want 0 and 64", s.Serving, s.Allocated-s.Serving)
	}
	if got := Refills(r.Timeline, total); !slices.Equal(got, []float64{10}) {
		t.Fatalf("refills %v, want one of 10 s: serving's release at 300 s, training at its MaxP by 310 s", got)
	}
}

func TestRevocationStatsShape(t *testing.T) {
	jobs := workload.GenerateProduction(3000, 30, 13)
	st := SimulateRevocations(jobs, 48, 0.001, 13)
	if st.TotalFailures == 0 {
		t.Fatal("expected some failures")
	}
	// the paper's asymmetry: >8-GPU jobs dominate failures, 1-GPU jobs are
	// a small share — despite small jobs dominating the job population
	if st.ShareGT8 < 0.3 {
		t.Fatalf("share of failures from >8 GPU jobs = %.2f, want large", st.ShareGT8)
	}
	if st.ShareLE1 > 0.25 {
		t.Fatalf("share of failures from 1 GPU jobs = %.2f, want small", st.ShareLE1)
	}
	if st.ShareGT8 <= st.ShareLE1 {
		t.Fatal("large jobs must dominate revocation failures")
	}
}
