package controlplane

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestInvariantsHoldAfterEveryOperation drives seeded sequences of Submit
// (elastic, gang, unknown team, an ID already registered), Tick, Release
// (an active lease, a retired one, an admission ticket, garbage) and Observe
// (a measured speedup over the plan, below the fallback tolerance or not, on
// a running, idle or unknown job) over a small three-type fleet, borrowing
// on and off, under each strategy, and checks the plane's invariants after
// every call, and that the fold of the decision log equals the live state
// (foldLaw) — plus, a few times per sequence, that the decision log only
// grows: every earlier rendering is a prefix of the next. A failing seed
// prints the operations that led to it.
//
// Found while writing it: resubmitting a registered job ID replaced the job
// in the ID index and orphaned the first submission's leases (any seed that
// draws the duplicate-ID operation on a job holding leases; seed 0 is one).
// Submit now refuses the second registration. The Observe op found that a
// trim of a type in the fallback snapshot let a later fallback restore GPUs
// the job no longer held; TrimUnused now cancels the pending fallback.
func TestInvariantsHoldAfterEveryOperation(t *testing.T) {
	seeds := uint64(2400)
	if testing.Short() || raceEnabled {
		seeds = 300 // the detector makes a seed ~10x dearer; `go test` runs them all
	}
	for seed := uint64(0); seed < seeds; seed++ {
		if ops, err := runOpSequence(seed); err != nil {
			t.Fatalf("seed %d: %v\noperations:\n  %s", seed, err, strings.Join(ops, "\n  "))
		}
	}
}

func runOpSequence(seed uint64) (ops []string, err error) {
	g := rng.New(seed)
	strategies := []Strategy{BestFit{}, FirstFit{}, WorstFit{}}
	p := New(Config{
		Inventory: sched.Resources{device.V100: 8, device.P100: 4, device.T4: 6},
		Teams: []TeamConfig{
			{Name: "ads", Quota: sched.Resources{device.V100: 2, device.P100: 4, device.T4: 2}},
			{Name: "nlp", Quota: sched.Resources{device.V100: 6, device.T4: 2}},
			{Name: "rec", Quota: sched.Resources{device.V100: 4, device.P100: 2, device.T4: 4}},
		},
		AllowBorrowing: g.Intn(2) == 0,
		Strategy:       strategies[g.Intn(len(strategies))],
		NodeGPUs:       4,
	})
	models := []string{"neumf", "resnet50", "vgg19", "bert"}
	teams := []string{"ads", "nlp", "rec", "", "ghost"}
	var jobIDs, leaseIDs []string
	var rendered []string
	now := 0.0
	step := func(op string, f func() error) error {
		ops = append(ops, op)
		if err := f(); err != nil {
			return err
		}
		if err := invariants(p); err != nil {
			return err
		}
		return foldLaw(p)
	}
	for n := 0; n < 40; n++ {
		switch r := g.Intn(12); {
		case r < 3: // Submit: elastic or gang, sometimes to a team that does not exist
			spec := workload.JobSpec{
				ID: fmt.Sprintf("j%d", len(jobIDs)), Model: models[g.Intn(len(models))],
				MaxP: 1 + g.Intn(6), ArrivalSec: now, WorkSteps: float64(1 + g.Intn(4000)),
				RequestedType: device.Type(g.Intn(3)), Team: teams[g.Intn(len(teams))], Priority: g.Intn(3),
			}
			if g.Intn(2) == 0 {
				spec.MinGPUs = spec.MaxP
			}
			jobIDs = append(jobIDs, spec.ID)
			err = step(fmt.Sprintf("Submit(%+v)", spec), func() error {
				l, resv := p.Submit(spec)
				if (l == nil) == (resv == nil) {
					return fmt.Errorf("Submit returned lease %v and reservation %v", l, resv)
				}
				if l != nil {
					leaseIDs = append(leaseIDs, l.ID)
				}
				return nil
			})
		case r < 4 && len(jobIDs) > 0: // Submit of a registered ID: refused, nothing but the log moves
			spec := workload.JobSpec{ID: jobIDs[g.Intn(len(jobIDs))], Model: "neumf", MaxP: 2, MinGPUs: 2 * g.Intn(2), WorkSteps: 10}
			err = step(fmt.Sprintf("Submit(%+v) again", spec), func() error {
				was, decisions, lines := p.jobs[spec.ID], p.Decisions(), p.nrecs
				l, resv := p.Submit(spec)
				if l != nil || resv == nil || resv.ETASec != -1 || len(resv.Remedies) != 1 || !strings.Contains(resv.Remedies[0], "taken") {
					return fmt.Errorf("resubmission answered with lease %v, reservation %+v", l, resv)
				}
				if p.jobs[spec.ID] != was || p.Decisions() != decisions || len(p.order) != len(jobIDs) || p.nrecs != lines+1 {
					return fmt.Errorf("resubmission changed state")
				}
				if log := p.DecisionLog(); !strings.Contains(log[len(log)-1], "plane.anomaly") {
					return fmt.Errorf("resubmission logged %q", log[len(log)-1])
				}
				return nil
			})
		case r < 8:
			now += 10
			err = step(fmt.Sprintf("Tick(%v)", now), func() error {
				p.Tick(now)
				for _, l := range p.activeLeases {
					if !slices.Contains(leaseIDs, l.ID) {
						leaseIDs = append(leaseIDs, l.ID)
					}
				}
				return nil
			})
		case r < 10: // Observe: Role-3 may fall back and retire leases
			id := "nobody"
			if len(jobIDs) > 0 && g.Intn(5) != 0 {
				id = jobIDs[g.Intn(len(jobIDs))]
			}
			speedup := []float64{0.1, 0.5, 0.79, 0.8, 1, 2.5}[g.Intn(6)]
			err = step(fmt.Sprintf("Observe(%q, %v x estimate)", id, speedup), func() error {
				_, est := p.Placement(id, 1)
				held, free := p.Held(id), p.Free()
				released, fell := p.Observe(id, est*speedup)
				for _, ty := range device.AllTypes() {
					if released[ty] < 0 || released[ty] > held[ty] || p.Free()[ty] != free[ty]+released[ty] {
						return fmt.Errorf("Observe released %v of %v held; free went %v -> %v", released, held, free, p.Free())
					}
				}
				if fell && speedup >= 0.8 {
					return fmt.Errorf("fell back at %v of the estimate", speedup)
				}
				return nil
			})
		default: // Release: active, retired, admission ticket, or garbage
			id := []string{"", "L9999", "admit-j0", "bogus"}[g.Intn(4)]
			if len(leaseIDs) > 0 && g.Intn(4) != 0 {
				id = leaseIDs[g.Intn(len(leaseIDs))]
			}
			active := slices.ContainsFunc(p.activeLeases, func(l *Lease) bool { return l.ID == id })
			err = step(fmt.Sprintf("Release(%q)", id), func() error {
				if err := p.Release(id); (err == nil) != active {
					return fmt.Errorf("Release(%q) = %v with the lease active: %v", id, err, active)
				}
				return nil
			})
		}
		if err != nil {
			return ops, err
		}
		if n%10 == 9 {
			log := p.DecisionLog()
			if len(log) < len(rendered) || !slices.Equal(log[:len(rendered)], rendered) {
				return ops, fmt.Errorf("a decision log of %d lines is not a prefix of the next rendering (%d lines)", len(rendered), len(log))
			}
			rendered = log
		}
	}
	return ops, nil
}

// TestLeasesAreImmutable: the *Lease Submit hands out still reads as minted
// after the plane has split it (partial reclaim) and released the residual,
// and what the log said before the split is still what it says after.
func TestLeasesAreImmutable(t *testing.T) {
	p := New(Config{
		Inventory: sched.Resources{device.V100: 16},
		Teams: []TeamConfig{
			{Name: "team-a", Quota: sched.Resources{device.V100: 4}},
			{Name: "team-b", Quota: sched.Resources{device.V100: 12}},
		},
		AllowBorrowing: true,
		NodeGPUs:       4,
	})
	gang := func(id, team string, n int) workload.JobSpec {
		return workload.JobSpec{ID: id, Model: "neumf", MaxP: n, MinGPUs: n, WorkSteps: 1e12, RequestedType: device.V100, Team: team}
	}
	held, _ := p.Submit(gang("a", "team-a", 8)) // beyond team-a's quota: borrowed from team-b, two node shares
	if held == nil || !held.Borrowed() || len(held.Nodes) != 2 {
		t.Fatalf("setup: want a borrowed two-share lease, got %+v", held)
	}
	minted := *held
	minted.Nodes = slices.Clone(held.Nodes)
	before := p.DecisionLog()

	// team-b's quota-backed gang of 10 finds 8 free and 4 of headroom: it
	// reclaims 6 of the 8 it lent, splitting the lease
	if l, _ := p.Submit(gang("b", "team-b", 10)); l == nil {
		t.Fatal("quota-backed gang not admitted")
	}
	checkInvariants(t, p)
	residual := p.jobs["a"].leases
	if len(residual) != 1 || residual[0].Count != 2 || residual[0] == held {
		t.Fatalf("setup: want one 2-GPU residual of the split, got %+v", residual)
	}
	if err := p.Release(residual[0].ID); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, p)

	if held.ID != minted.ID || held.Count != minted.Count || !slices.Equal(held.Nodes, minted.Nodes) {
		t.Fatalf("the lease Submit returned was rewritten:\n minted %+v\n now    %+v", minted, *held)
	}
	after := p.DecisionLog()
	if !strings.Contains(strings.Join(after[len(before):], "\n"), "plane.split") {
		t.Fatal("setup: no split was logged")
	}
	if !slices.Equal(after[:len(before)], before) {
		t.Fatal("the log taken before the split is not a prefix of the log taken after")
	}
}

// TestPlacementScanEqualsSortThenFill: place picks, share by share, the
// strategy's most preferred node with room; that must give exactly the
// shares of sorting the candidates by the strategy and filling them in order
// (how placement was written before Strategy became a comparator), for every
// strategy, on arbitrary node states.
func TestPlacementScanEqualsSortThenFill(t *testing.T) {
	for _, s := range []Strategy{BestFit{}, FirstFit{}, WorstFit{}} {
		for seed := uint64(0); seed < 300; seed++ {
			g := rng.New(seed)
			p := New(Config{
				Inventory: sched.Resources{device.V100: 8 + g.Intn(40), device.T4: 5},
				Strategy:  s, NodeGPUs: 1 + g.Intn(8),
			})
			free := 0
			for _, n := range p.typeNodes[device.V100] {
				n.Used = g.Intn(n.Cap + 1)
				free += n.Free()
			}
			if free == 0 {
				continue
			}
			count := 1 + g.Intn(free)
			// the reference: sort the candidates, fill greedily
			var cands []Node
			for _, n := range p.typeNodes[device.V100] {
				if n.Free() > 0 {
					cands = append(cands, *n)
				}
			}
			sort.SliceStable(cands, func(i, k int) bool { return s.Less(&cands[i], &cands[k]) })
			var want []string
			for left, i := count, 0; left > 0; i++ {
				take := min(cands[i].Free(), left)
				want = append(want, fmt.Sprintf("%s:%d", cands[i].ID, take))
				left -= take
			}
			var got []string
			for _, sh := range p.place(device.V100, count) {
				got = append(got, fmt.Sprintf("%s:%d", sh.NodeID, sh.Count))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: placing %d GPUs\n scan          %v\n sort-then-fill %v", s.Name(), seed, count, got, want)
			}
		}
	}
}
