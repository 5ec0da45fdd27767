package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func caps() Capability {
	return Capability{device.V100: 1.0, device.P100: 0.5, device.T4: 0.35}
}

func TestResourcesBasics(t *testing.T) {
	r := Resources{device.V100: 2, device.T4: 1}
	if r.Total() != 3 {
		t.Fatal("Total")
	}
	c := r.Clone()
	c[device.V100] = 9
	if r[device.V100] != 2 {
		t.Fatal("Clone must be deep")
	}
	if r.Counts() != (Counts{device.V100: 2, device.T4: 1}) {
		t.Fatal("Counts must keep every entry")
	}
}

// TestCountsString pins the rendering every decision log prints a vector in.
func TestCountsString(t *testing.T) {
	for _, c := range []struct {
		c    Counts
		want string
	}{
		{Counts{}, ""},
		{Counts{device.P100: 2}, "P100:2;"},
		{Counts{device.V100: 4, device.T4: 1}, "V100:4;T4:1;"},
		{Counts{device.V100: 4, device.P100: 2, device.T4: 1}, "V100:4;P100:2;T4:1;"},
	} {
		if got := c.c.String(); got != c.want {
			t.Errorf("%v renders %q, want %q", [device.NumTypes]int(c.c), got, c.want)
		}
	}
}

// TestVectorPassesAllocateNothing: the passes that hand a GPU vector in or
// out of an intra-job scheduler, and a plan-database hit, allocate nothing.
func TestVectorPassesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	var trimmed, released Counts
	var fell bool
	trim := NewIntraJob("trim", NewCompanion(1, caps()), false)
	preempt := NewIntraJob("preempt", NewCompanion(4, caps()), false)
	fallback := NewIntraJob("fallback", NewCompanion(4, caps()), false)
	cp := NewCompanion(4, caps())
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"TrimUnused", func() {
			trim.Apply(Counts{device.V100: 1, device.T4: 1}) // maxP 1: the T4 runs no EST
			trimmed = trim.TrimUnused()
		}},
		{"Preempt", func() {
			preempt.Apply(Counts{device.V100: 4})
			released, _ = preempt.Preempt(Counts{device.V100: 2})
		}},
		{"ObserveThroughput", func() {
			fallback.Apply(Counts{device.V100: 2})
			fallback.Grant(Proposal{JobID: "fallback", Type: device.V100, Count: 2})
			// below the fallback tolerance, short of the bias that refreshes the model
			_, fell = fallback.ObserveThroughput(fallback.CurrentPlan().Throughput * 0.6)
		}},
		{"Current", func() { _ = preempt.Current() }},
		{"PlanFor", func() { cp.PlanFor(Counts{device.V100: 2, device.P100: 1}) }},
	} {
		if a := testing.AllocsPerRun(20, c.op); a != 0 {
			t.Errorf("%s allocates %v objects, want 0", c.name, a)
		}
	}
	if trimmed != (Counts{device.T4: 1}) || released != (Counts{device.V100: 2}) || !fell {
		t.Fatalf("vacuous: trimmed %v, preempted %v, fell back %v", trimmed, released, fell)
	}
}

func TestPlanBalancedHomogeneous(t *testing.T) {
	cp := NewCompanion(4, caps())
	p, ok := cp.PlanFor(Counts{device.V100: 4})
	if !ok {
		t.Fatal("plan expected")
	}
	if p.ESTsPerGPU[device.V100] != 1 || p.NEST != 4 {
		t.Fatalf("plan %+v", p)
	}
	if math.Abs(p.Waste) > 1e-9 {
		t.Fatalf("balanced plan should have zero waste, got %v", p.Waste)
	}
	if math.Abs(p.Throughput-4) > 1e-9 {
		t.Fatalf("throughput %v, want 4", p.Throughput)
	}
}

func TestPlanTimeSlicingOneGPU(t *testing.T) {
	cp := NewCompanion(4, caps())
	p, ok := cp.PlanFor(Counts{device.V100: 1})
	if !ok {
		t.Fatal("plan expected")
	}
	if p.ESTsPerGPU[device.V100] != 4 {
		t.Fatalf("expected 4 ESTs on the single GPU, got %+v", p.ESTsPerGPU)
	}
	if math.Abs(p.Throughput-1) > 1e-9 {
		t.Fatalf("time-sliced throughput %v, want 1 (= C of one V100)", p.Throughput)
	}
}

func TestPlanHeterogeneousLoadBalance(t *testing.T) {
	cp := NewCompanion(4, caps())
	p, ok := cp.PlanFor(Counts{device.V100: 1, device.P100: 1})
	if !ok {
		t.Fatal("plan expected")
	}
	// balanced: 3 ESTs on the V100 (cost 3) vs 1 on the P100 (cost 2) →
	// f=3, throughput = 4/3; the alternative 2/2 gives f=4, throughput 1
	if p.ESTsPerGPU[device.V100] != 3 || p.ESTsPerGPU[device.P100] != 1 {
		t.Fatalf("mapping %+v", p.ESTsPerGPU)
	}
	if math.Abs(p.Throughput-4.0/3) > 1e-9 {
		t.Fatalf("hetero throughput %v, want 4/3", p.Throughput)
	}
}

func TestPlanOverProvisionWaste(t *testing.T) {
	// 3 GPUs, maxP=4: nEST=6 (A=2 each) or nEST=... greedy: A=1→3, A=2→6 ≥ 4
	cp := NewCompanion(4, caps())
	p, ok := cp.PlanFor(Counts{device.V100: 3})
	if !ok {
		t.Fatal("plan expected")
	}
	if p.NEST != 6 {
		t.Fatalf("nEST = %d, want 6", p.NEST)
	}
	if p.Waste <= 0 {
		t.Fatal("over-provisioned plan should have positive waste")
	}
	if p.Throughput >= 3 {
		t.Fatalf("throughput %v must be below Σ N·C = 3", p.Throughput)
	}
}

func TestPlanPropertiesQuick(t *testing.T) {
	cp := NewCompanion(8, caps())
	f := func(v, pq, t4 uint8) bool {
		r := Counts{device.V100: int(v % 5), device.P100: int(pq % 5), device.T4: int(t4 % 5)}
		if r.Total() == 0 {
			_, ok := cp.PlanFor(r)
			return !ok
		}
		p, ok := cp.PlanFor(r)
		if !ok {
			return false
		}
		sumCap := 0.0
		for typ, n := range r {
			sumCap += float64(n) * cp.Caps[typ]
		}
		return p.Waste >= -1e-9 && p.Throughput <= sumCap+1e-9 && p.NEST >= cp.MaxP && p.Throughput > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputMonotoneInHomogeneousGPUs(t *testing.T) {
	cp := NewCompanion(8, caps())
	prev := 0.0
	for n := 1; n <= 8; n++ {
		p, _ := cp.PlanFor(Counts{device.V100: n})
		if p.Throughput < prev-1e-9 {
			t.Fatalf("throughput decreased at %d GPUs: %v < %v", n, p.Throughput, prev)
		}
		prev = p.Throughput
	}
	if math.Abs(prev-8) > 1e-9 {
		t.Fatalf("8 V100s with 8 ESTs should reach throughput 8, got %v", prev)
	}
}

func TestUpdateCapabilityInvalidatesPlans(t *testing.T) {
	cp := NewCompanion(4, caps())
	p1, _ := cp.PlanFor(Counts{device.V100: 2})
	cp.UpdateCapability(device.V100, 2.0)
	p2, _ := cp.PlanFor(Counts{device.V100: 2})
	if p2.Throughput <= p1.Throughput {
		t.Fatal("capability update should raise estimated throughput")
	}
	cp.UpdateCapability(device.V100, -1) // ignored
	if cp.Caps[device.V100] != 2.0 {
		t.Fatal("invalid capability update must be ignored")
	}
}

func TestIntraJobApplyAndRender(t *testing.T) {
	s := NewIntraJob("job-0", NewCompanion(4, caps()), false)
	_, ok := s.Apply(Counts{device.V100: 1, device.P100: 2})
	if !ok {
		t.Fatal("apply failed")
	}
	p := s.RenderPlacement(4)
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	// fastest type first in placement
	if p.Devices[0] != device.V100 {
		t.Fatalf("placement order %v", p.Devices)
	}
	if _, ok := s.Apply(Counts{}); ok {
		t.Fatal("empty resources must not apply")
	}
}

func TestIntraJobHomogeneousOnly(t *testing.T) {
	s := NewIntraJob("job-0", NewCompanion(4, caps()), true)
	if _, ok := s.Apply(Counts{device.V100: 1, device.P100: 1}); ok {
		t.Fatal("homogeneous-only job must reject mixed resources")
	}
	if _, ok := s.Apply(Counts{device.V100: 2}); !ok {
		t.Fatal("single-type resources must apply")
	}
	// proposals must stay on the held type
	props := s.Proposals(Resources{device.V100: 2, device.T4: 4}, 10)
	for _, pr := range props {
		if pr.Type != device.V100 {
			t.Fatalf("homogeneous-only job proposed %v", pr.Type)
		}
	}
}

func TestProposalsRankedBySpeedupPerGPU(t *testing.T) {
	s := NewIntraJob("job-0", NewCompanion(8, caps()), false)
	s.Apply(Counts{device.V100: 1})
	props := s.Proposals(Resources{device.V100: 4, device.T4: 2}, 20)
	if len(props) == 0 {
		t.Fatal("expected proposals")
	}
	for i := 1; i < len(props); i++ {
		if props[i].SpeedupPerGPU > props[i-1].SpeedupPerGPU+1e-12 {
			t.Fatal("proposals must be sorted by speedup per GPU")
		}
	}
	for _, pr := range props {
		if pr.SpeedupTotal <= 1 {
			t.Fatalf("proposal with no speedup should be filtered: %+v", pr)
		}
	}
}

func TestIdleJobProposes(t *testing.T) {
	s := NewIntraJob("job-0", NewCompanion(4, caps()), false)
	props := s.Proposals(Resources{device.T4: 1}, 5)
	if len(props) == 0 {
		t.Fatal("an idle job must propose for any free GPU")
	}
}

func TestGrantAndFallback(t *testing.T) {
	s := NewIntraJob("job-0", NewCompanion(8, caps()), false)
	s.Apply(Counts{device.V100: 2})
	base := s.CurrentPlan().Throughput
	props := s.Proposals(Resources{device.V100: 2}, 1)
	if len(props) == 0 {
		t.Fatal("expected a proposal")
	}
	p, ok := s.Grant(props[0])
	if !ok || p.Throughput <= base {
		t.Fatal("grant should raise estimated throughput")
	}
	// observed slowdown → fall back and release the new GPUs
	release, fell := s.ObserveThroughput(base * 0.5)
	if !fell {
		t.Fatal("expected fallback on slowdown")
	}
	if release[device.V100] != props[0].Count {
		t.Fatalf("release %v, want %d V100", release, props[0].Count)
	}
	if s.Current()[device.V100] != 2 {
		t.Fatal("fallback should restore previous resources")
	}
	// healthy observation → no fallback
	s.Grant(props[0])
	if _, fell := s.ObserveThroughput(s.CurrentPlan().Throughput); fell {
		t.Fatal("no fallback expected on healthy throughput")
	}
}

// TestFallbackIsNotReproposed: a fallback restores the holdings, the model
// and the plan the job had before the grant, so without a memory of it the
// next Proposals offers the same scale-out, the next round grants it again,
// and the job pays two scale events per cycle, forever. The step fallen back
// from stays off the list until the job's inputs move.
func TestFallbackIsNotReproposed(t *testing.T) {
	s := NewIntraJob("job-0", NewCompanion(8, caps()), false)
	s.Apply(Counts{device.V100: 2})
	free := Resources{device.V100: 4}
	props := s.Proposals(free, 3)
	if len(props) < 2 {
		t.Fatalf("setup: want several proposals, got %+v", props)
	}
	granted := props[0]
	s.Grant(granted)
	if _, fell := s.ObserveThroughput(s.CurrentPlan().Throughput * 0.5); !fell {
		t.Fatal("setup: expected a fallback")
	}
	again := s.Proposals(free, 3)
	if len(again) == 0 {
		t.Fatal("the other steps must stay on offer")
	}
	for _, pr := range again {
		if pr.Type == granted.Type && pr.Count == granted.Count {
			t.Fatalf("the step fallen back from (+%d %s) is proposed again: %+v", pr.Count, pr.Type, again)
		}
	}
	s.Companion.UpdateCapability(device.T4, caps()[device.T4]) // the model's generation moves, its values do not
	if back := s.Proposals(free, 3); back[0] != granted {
		t.Fatalf("after the model moved, want %+v first again, got %+v", granted, back)
	}
}

func TestGreedyPolicyOrderAndCapacity(t *testing.T) {
	props := []Proposal{
		{JobID: "a", Type: device.V100, Count: 1, SpeedupTotal: 1.5, SpeedupPerGPU: 0.5},
		{JobID: "b", Type: device.V100, Count: 2, SpeedupTotal: 3.0, SpeedupPerGPU: 1.0},
		{JobID: "c", Type: device.V100, Count: 2, SpeedupTotal: 3.0, SpeedupPerGPU: 1.0},
		{JobID: "b", Type: device.T4, Count: 1, SpeedupTotal: 1.2, SpeedupPerGPU: 0.2},
	}
	free := Resources{device.V100: 3}
	accepted := RoundPass(GreedyPolicy{}, free, props, nil)
	// b and c tie at 1.0; both want 2 of 3 V100s → first by job id (b), then
	// c cannot fit, then a takes the last V100
	if len(accepted) != 2 {
		t.Fatalf("accepted %d proposals: %+v", len(accepted), accepted)
	}
	if accepted[0].JobID != "b" || accepted[1].JobID != "a" {
		t.Fatalf("grant order wrong: %+v", accepted)
	}
	if free[device.V100] != 0 {
		t.Fatal("pool not debited")
	}
}

func TestGreedyTiesPreferMoreGPUs(t *testing.T) {
	props := []Proposal{
		{JobID: "a", Type: device.V100, Count: 1, SpeedupPerGPU: 0.5, SpeedupTotal: 1.5},
		{JobID: "b", Type: device.V100, Count: 3, SpeedupPerGPU: 0.5, SpeedupTotal: 2.5},
	}
	accepted := GreedyPolicy{}.Decide(Resources{device.V100: 3}, props)
	if accepted[0].JobID != "b" {
		t.Fatal("equal speedup must prefer the larger request")
	}
}

func TestCompanionPanicsOnBadMaxP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCompanion(0, caps())
}
