package controlplane

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSingleTenantBitwiseMatchesDeprecatedShim pins the api_redesign
// contract: a single-tenant control plane makes bitwise-identical allocation
// decisions to the pre-plane scheduler loop (IntraJob proposals through
// sched.RoundPass on one bare pool). Jobs never finish (huge WorkSteps), so
// every tick's holdings and free pool must match exactly.
func TestSingleTenantBitwiseMatchesDeprecatedShim(t *testing.T) {
	inv := sched.Resources{device.V100: 12, device.P100: 8, device.T4: 6}
	const topK = 3
	specs := []workload.JobSpec{
		{ID: "j1", Model: "neumf", MaxP: 8, ArrivalSec: 0, WorkSteps: 1e15, RequestedType: device.V100},
		{ID: "j2", Model: "resnet50", MaxP: 6, ArrivalSec: 10, WorkSteps: 1e15, RequestedType: device.V100},
		{ID: "j3", Model: "vgg19", MaxP: 4, ArrivalSec: 20, WorkSteps: 1e15, RequestedType: device.P100},
		{ID: "j4", Model: "electra", MaxP: 8, ArrivalSec: 30, WorkSteps: 1e15, RequestedType: device.T4},
	}

	// new path: single-tenant plane
	plane := New(Config{Inventory: inv, TickSec: 10, RestartSec: 5})

	// old path: the loop cluster/sim.go ran before the plane existed
	free := inv.Clone()
	intras := map[string]*sched.IntraJob{}
	var active []string

	next := 0
	for tick := 0; tick < 20; tick++ {
		now := float64(tick) * 10
		for next < len(specs) && specs[next].ArrivalSec <= now {
			s := specs[next]
			plane.Submit(s)
			intras[s.ID] = sched.NewIntraJob(s.ID, sched.NewCompanion(s.MaxP, CapabilityFor(s.Model)), false)
			active = append(active, s.ID)
			next++
		}
		plane.Tick(now)

		var proposals []sched.Proposal
		for _, id := range active {
			proposals = append(proposals, intras[id].Proposals(free, topK)...)
		}
		for _, pr := range sched.RoundPass(sched.GreedyPolicy{}, free, proposals, nil) {
			if _, ok := intras[pr.JobID].Grant(pr); ok {
				for typ, n := range intras[pr.JobID].TrimUnused() {
					free[device.Type(typ)] += n
				}
			} else {
				free[pr.Type] += pr.Count
			}
		}

		if got, want := plane.Free().Counts(), free.Counts(); got != want {
			t.Fatalf("tick %d: plane free %s != shim free %s", tick, got, want)
		}
		for _, id := range active {
			if got, want := plane.Held(id), intras[id].Current(); got != want {
				t.Fatalf("tick %d: job %s plane holds %s, shim holds %s", tick, id, got, want)
			}
			gp, sp := plane.jobs[id].intra.CurrentPlan(), intras[id].CurrentPlan()
			if gp.Throughput != sp.Throughput {
				t.Fatalf("tick %d: job %s plan throughput %v != %v", tick, id, gp.Throughput, sp.Throughput)
			}
		}
	}
}
