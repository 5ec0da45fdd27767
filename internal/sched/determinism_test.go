package sched

import (
	"reflect"
	"testing"

	"repro/internal/device"
)

// schedulingPass runs one full intra/inter scheduling episode — plan
// selection, proposal rounds against a shared pool, a trim, a
// preemption, and a fallback — and returns every decision it produced. It is
// deliberately heavy on heterogeneous resource vectors: those are the inputs
// where a stray map-range would let Go's randomized iteration order leak
// into plans and tie-breaks.
func schedulingPass() ([]Plan, [][]Proposal, []Counts) {
	var plans []Plan
	var rounds [][]Proposal
	var pools []Counts

	jobs := []*IntraJob{
		NewIntraJob("job-a", NewCompanion(8, caps()), false),
		NewIntraJob("job-b", NewCompanion(4, Capability{device.V100: 1.0, device.P100: 0.5, device.T4: 0.35}), false),
		NewIntraJob("job-c", NewCompanion(2, Capability{device.V100: 1.0, device.P100: 1.0, device.T4: 0.35}), true),
	}
	if p, ok := jobs[0].Apply(Counts{device.V100: 2, device.P100: 1, device.T4: 1}); ok {
		plans = append(plans, p)
	}
	if p, ok := jobs[1].Apply(Counts{device.P100: 2}); ok {
		plans = append(plans, p)
	}
	if p, ok := jobs[2].Apply(Counts{device.V100: 1}); ok {
		plans = append(plans, p)
	}

	free := Resources{device.V100: 3, device.P100: 2, device.T4: 4}
	for round := 0; round < 3; round++ {
		var proposals []Proposal
		for _, j := range jobs {
			proposals = append(proposals, j.Proposals(free, 3)...)
		}
		accepted := RoundPass(GreedyPolicy{}, free, proposals, nil)
		rounds = append(rounds, accepted)
		for _, pr := range accepted {
			for _, j := range jobs {
				if j.JobID == pr.JobID {
					if p, ok := j.Grant(pr); ok {
						plans = append(plans, p)
					}
				}
			}
		}
		pools = append(pools, free.Counts())
	}

	// trim, preemption, and fallback
	for t, n := range jobs[0].TrimUnused() {
		free[device.Type(t)] += n
	}
	pools = append(pools, free.Counts())
	rel, _ := jobs[0].Preempt(Counts{device.V100: 1, device.P100: 1, device.T4: 2})
	pools = append(pools, rel)
	if rel, fell := jobs[1].ObserveThroughput(jobs[1].CurrentPlan().Throughput * 0.1); fell {
		pools = append(pools, rel)
	}
	for _, j := range jobs {
		plans = append(plans, j.CurrentPlan())
	}
	return plans, rounds, pools
}

// TestSchedulingPassesAreIdentical is the satellite regression for the
// maporder fixes: two (in fact fifty) identical scheduling passes must
// produce byte-identical plans, grant sequences, and pool states. Go
// randomizes map iteration order per range statement, so a reintroduced
// map-range over GPU types or allocations flakes this test.
func TestSchedulingPassesAreIdentical(t *testing.T) {
	refPlans, refRounds, refPools := schedulingPass()
	if len(refPlans) == 0 || len(refRounds) == 0 {
		t.Fatal("scheduling pass produced no decisions; test is vacuous")
	}
	for i := 0; i < 50; i++ {
		plans, rounds, pools := schedulingPass()
		if !reflect.DeepEqual(plans, refPlans) {
			t.Fatalf("pass %d: plans diverged\n got %+v\nwant %+v", i, plans, refPlans)
		}
		if !reflect.DeepEqual(rounds, refRounds) {
			t.Fatalf("pass %d: grant sequence diverged\n got %+v\nwant %+v", i, rounds, refRounds)
		}
		if !reflect.DeepEqual(pools, refPools) {
			t.Fatalf("pass %d: pool states diverged\n got %+v\nwant %+v", i, pools, refPools)
		}
	}
}

// TestRenderPlacementDeterministic pins the placement rendering: identical
// plans must map virtual ranks to devices identically on every call — the
// property every worker relies on to derive the same mapping independently.
func TestRenderPlacementDeterministic(t *testing.T) {
	mk := func() *IntraJob {
		j := NewIntraJob("job", NewCompanion(6, Capability{device.V100: 1.0, device.P100: 0.5, device.T4: 0.35}), false)
		j.Apply(Counts{device.V100: 1, device.P100: 2, device.T4: 1})
		return j
	}
	ref := mk().RenderPlacement(6)
	for i := 0; i < 50; i++ {
		if got := mk().RenderPlacement(6); !reflect.DeepEqual(got, ref) {
			t.Fatalf("placement diverged: got %+v want %+v", got, ref)
		}
	}
}
