package sched

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
)

// TestRememberedProposalsArePure: whatever a job has been through, the answer
// Proposals gives — remembered or recomputed — is the answer a fresh IntraJob
// brought to the same state by the same operations gives on its first call.
// Each seeded sequence interleaves Apply / Grant / TrimUnused / Preempt /
// ObserveThroughput (some measurements biased enough to trip
// UpdateCapability, some low enough to fall back) with Proposals against
// pools and k that sometimes repeat, sometimes move without moving what may
// be explored, and sometimes change; the caller also scribbles on every
// answer it gets, which must never reach the remembered one.
func TestRememberedProposalsArePure(t *testing.T) {
	const sequences, steps = 1200, 20
	pools := []Resources{
		{},
		{device.V100: 1},
		{device.V100: 3, device.T4: 2},
		{device.P100: 2, device.T4: 9},
		{device.V100: 40, device.P100: 40, device.T4: 40},
		{device.V100: 64, device.P100: 32, device.T4: 32}, // beyond every maxP, like the one above
	}
	hits := 0
	for seed := uint64(0); seed < sequences; seed++ {
		g := rng.New(seed)
		maxP, homog := 1+g.Intn(8), g.Intn(4) == 0
		fresh := func() *IntraJob { return NewIntraJob("job", NewCompanion(maxP, caps()), homog) }
		live := fresh()
		var history []func(*IntraJob)
		free, k := pools[g.Intn(len(pools))], 1+g.Intn(4)
		var last []Proposal
		for step := 0; step < steps; step++ {
			var op func(*IntraJob)
			switch g.Intn(7) {
			case 0:
				var r Counts
				r[g.Intn(3)] = g.Intn(5)
				r[g.Intn(3)] = g.Intn(3)
				op = func(s *IntraJob) { s.Apply(r) }
			case 1:
				if len(last) > 0 {
					pr := last[g.Intn(len(last))]
					op = func(s *IntraJob) { s.Grant(pr) }
				}
			case 2:
				op = func(s *IntraJob) { s.TrimUnused() }
			case 3:
				var take Counts
				take[g.Intn(3)] = 1 + g.Intn(3)
				op = func(s *IntraJob) { s.Preempt(take) }
			case 4:
				measured := live.CurrentPlan().Throughput * []float64{0.1, 0.6, 1, 3}[g.Intn(4)]
				op = func(s *IntraJob) { s.ObserveThroughput(measured) }
			}
			if op != nil {
				op(live)
				history = append(history, op)
			}
			if g.Intn(3) == 0 {
				free, k = pools[g.Intn(len(pools))], 1+g.Intn(4)
			}
			remembered := live.memo
			got := live.Proposals(free, k)
			if len(remembered) > 0 && len(live.memo) > 0 && &remembered[0] == &live.memo[0] {
				hits++
			}
			twin := fresh()
			for _, h := range history {
				h(twin)
			}
			want := twin.Proposals(free, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (maxP %d, homog %v, free %v, k %d):\n remembered %+v\n recomputed %+v",
					seed, step, maxP, homog, free, k, got, want)
			}
			last = append(last[:0], got...)
			// the caller owns what it was given
			for i := range got {
				got[i] = Proposal{JobID: "scribble"}
			}
			_ = append(got, Proposal{})
		}
	}
	if hits < sequences {
		t.Fatalf("only %d remembered answers over %d sequences: the test no longer exercises the remembered path", hits, sequences)
	}
	t.Logf("%d of %d answers were remembered ones", hits, sequences*steps)
}

// TestCompanionOwnsItsCapabilities: NewCompanion copies the capability map
// it is given, so throughput feedback on one job reaches neither a sibling
// companion built from the same map nor the map itself.
func TestCompanionOwnsItsCapabilities(t *testing.T) {
	shared := caps()
	a, b := NewCompanion(4, shared), NewCompanion(4, shared)
	before, _ := b.PlanFor(Counts{device.V100: 2})
	s := NewIntraJob("a", a, false)
	s.Apply(Counts{device.V100: 2})
	s.ObserveThroughput(s.CurrentPlan().Throughput * 0.1) // biased enough to refresh a's model
	if a.Caps[device.V100] == caps()[device.V100] {
		t.Fatal("setup: the measurement did not trip UpdateCapability")
	}
	if !reflect.DeepEqual(shared, caps()) {
		t.Fatalf("the caller's capability map was rewritten: %v", shared)
	}
	b.UpdateCapability(device.T4, b.Caps[device.T4]) // drop b's memoized plans, keep its model
	if after, _ := b.PlanFor(Counts{device.V100: 2}); after.Throughput != before.Throughput {
		t.Fatalf("sibling companion's plan moved from %v to %v", before.Throughput, after.Throughput)
	}
}
