package controlplane

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/workload"
)

// checkInvariants asserts the plane's conservation laws after any sequence of
// operations, and that the decision log folds to the live state; see
// invariants and foldLaw.
func checkInvariants(t *testing.T, p *Plane) {
	t.Helper()
	if err := invariants(p); err != nil {
		t.Fatal(err)
	}
	if err := foldLaw(p); err != nil {
		t.Fatal(err)
	}
}

// invariants is the plane's accounting contract: active leases + free pool ==
// inventory; every running job's leases sum to exactly what its intra-job
// scheduler holds, and no active lease belongs to a finished job; node
// occupancy matches the lease set; each envelope's inUse / lent / borrowed are
// the sums over the active leases it sponsors / lends / holds; and the lists
// Tick walks are what they claim to be — live is {admitted, not done} in
// submission order, waiting is {not admitted} by (priority desc, submission).
func invariants(p *Plane) error {
	var leased sched.Counts
	type books struct{ inUse, lent, borrowed sched.Counts }
	funds := map[string]*books{}
	for _, e := range p.envs {
		funds[e.cfg.Name] = &books{}
	}
	for _, l := range p.activeLeases {
		leased[l.Type] += l.Count
		n := 0
		for _, s := range l.Nodes {
			n += s.Count
		}
		if n != l.Count {
			return fmt.Errorf("lease %s: node shares sum %d != count %d", l.ID, n, l.Count)
		}
		if j := p.jobs[l.JobID]; j == nil || j.done || !slices.Contains(j.leases, l) {
			return fmt.Errorf("lease %s is active but job %s is finished, unknown, or does not list it", l.ID, l.JobID)
		}
		funds[l.Sponsor].inUse[l.Type] += l.Count
		if l.Borrowed() {
			funds[l.Sponsor].lent[l.Type] += l.Count
			funds[l.Team].borrowed[l.Type] += l.Count
		}
	}
	for _, e := range p.envs {
		if b := funds[e.cfg.Name]; e.inUse != b.inUse || e.lent != b.lent || e.borrowed != b.borrowed {
			return fmt.Errorf("team %s: envelope says inUse %v lent %v borrowed %v, its active leases say %v %v %v",
				e.cfg.Name, e.inUse, e.lent, e.borrowed, b.inUse, b.lent, b.borrowed)
		}
	}
	var live, waiting []*job
	for _, j := range p.order {
		if !j.admitted {
			waiting = append(waiting, j)
		}
		if j.done {
			if len(j.leases) != 0 {
				return fmt.Errorf("finished job %s still lists %d leases", j.spec.ID, len(j.leases))
			}
			continue
		}
		if j.admitted {
			live = append(live, j)
		}
		var held sched.Counts
		for _, l := range j.leases {
			held[l.Type] += l.Count
		}
		cur := j.intra.Current()
		for _, ty := range device.AllTypes() {
			if held[ty] != cur[ty] {
				return fmt.Errorf("job %s: leases hold %d %s but scheduler holds %d", j.spec.ID, held[ty], ty, cur[ty])
			}
		}
	}
	sort.SliceStable(waiting, func(i, k int) bool { return waiting[i].spec.Priority > waiting[k].spec.Priority })
	if !slices.Equal(p.live, live) || !slices.Equal(p.waiting, waiting) {
		return fmt.Errorf("tick lists drifted: live has %d jobs, want %d; waiting has %d, want %d (or their order differs)",
			len(p.live), len(live), len(p.waiting), len(waiting))
	}
	var nodeUsed sched.Counts
	for _, n := range p.nodes {
		if n.Used < 0 || n.Used > n.Cap {
			return fmt.Errorf("node %s used %d out of [0,%d]", n.ID, n.Used, n.Cap)
		}
		nodeUsed[n.Type] += n.Used
	}
	for _, ty := range device.AllTypes() {
		if leased[ty]+p.free[ty] != p.cfg.Inventory[ty] {
			return fmt.Errorf("%s: leased %d + free %d != inventory %d", ty, leased[ty], p.free[ty], p.cfg.Inventory[ty])
		}
		if nodeUsed[ty] != leased[ty] {
			return fmt.Errorf("%s: nodes hold %d but leases say %d", ty, nodeUsed[ty], leased[ty])
		}
	}
	return nil
}

func elasticJob(id, model string, maxP int, arrival float64, team string) workload.JobSpec {
	return workload.JobSpec{
		ID: id, Model: model, MaxP: maxP, ArrivalSec: arrival,
		WorkSteps: 1e12, RequestedType: device.V100, Team: team,
	}
}

func TestSingleTenantLifecycle(t *testing.T) {
	p := New(Config{Inventory: sched.Resources{device.V100: 8, device.T4: 4}})
	a, r := p.Submit(workload.JobSpec{
		ID: "a", Model: "neumf", MaxP: 4, WorkSteps: 50, RequestedType: device.V100,
	})
	if a == nil || r != nil {
		t.Fatal("elastic submit must admit immediately")
	}
	for now, i := 0.0, 0; i < 200 && p.FinishedCount() < 1; i++ {
		p.Tick(now)
		checkInvariants(t, p)
		now += 10
	}
	if p.FinishedCount() != 1 {
		t.Fatal("job never finished")
	}
	if p.Allocated() != 0 {
		t.Fatalf("finished job must release everything, %d still allocated", p.Allocated())
	}
	rep := p.Report()
	if rep.LeasesMinted == 0 || rep.LeasesActive != 0 {
		t.Fatalf("lease stats: %+v", rep)
	}
	log := strings.Join(rep.Log, "\n")
	for _, want := range []string{"plane.admit", "plane.lease", "plane.place", "plane.finish"} {
		if !strings.Contains(log, want) {
			t.Fatalf("decision log missing %q:\n%s", want, log)
		}
	}
}

func TestGangAdmissionAndReservation(t *testing.T) {
	p := New(Config{Inventory: sched.Resources{device.V100: 8}})
	// a gang that fits is admitted with a funded lease
	l, _ := p.Submit(workload.JobSpec{
		ID: "gang1", Model: "neumf", MaxP: 6, MinGPUs: 6, WorkSteps: 1e12,
		RequestedType: device.V100,
	})
	if l == nil || l.Count != 6 || l.Type != device.V100 {
		t.Fatalf("gang lease: %+v", l)
	}
	checkInvariants(t, p)
	// a second gang cannot fit: reservation with deficit, ETA, and remedies
	l2, resv := p.Submit(workload.JobSpec{
		ID: "gang2", Model: "neumf", MaxP: 4, MinGPUs: 4, WorkSteps: 100,
		RequestedType: device.V100,
	})
	if l2 != nil || resv == nil {
		t.Fatal("second gang must be reserved, not admitted")
	}
	if resv.Deficit != 2 {
		t.Fatalf("deficit %d, want 2 (free 2 of 4 needed)", resv.Deficit)
	}
	if resv.ETASec <= 0 {
		t.Fatalf("eta %v, want positive (gang1 will finish)", resv.ETASec)
	}
	found := false
	for _, rem := range resv.Remedies {
		if strings.Contains(rem, l.ID) && strings.Contains(rem, "gang1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("remedies must name the blocking lease %s of gang1: %v", l.ID, resv.Remedies)
	}
	if got := len(p.OpenReservations()); got != 1 {
		t.Fatalf("open reservations %d, want 1", got)
	}
	// the waiting gang is admitted on a later tick once gang1 finishes
	p.jobs["gang1"].remaining = 1 // fast-forward
	for now, i := 0.0, 0; i < 50 && !p.jobs["gang2"].admitted; i++ {
		p.Tick(now)
		checkInvariants(t, p)
		now += 10
	}
	if !p.jobs["gang2"].admitted {
		t.Fatal("gang2 never admitted after capacity freed")
	}
}

func TestBorrowingRaisesUtilization(t *testing.T) {
	inv := sched.Resources{device.V100: 16}
	teams := []TeamConfig{
		{Name: "team-a", Quota: sched.Resources{device.V100: 2}},
		{Name: "team-b", Quota: sched.Resources{device.V100: 14}},
	}
	run := func(borrow bool) Report {
		p := New(Config{Inventory: inv, Teams: teams, AllowBorrowing: borrow})
		p.Submit(elasticJob("a1", "neumf", 8, 0, "team-a"))
		p.Submit(elasticJob("a2", "resnet50", 8, 0, "team-a"))
		p.Submit(elasticJob("a3", "vgg19", 8, 0, "team-a"))
		for now, i := 0.0, 0; i < 30; i++ {
			p.Tick(now)
			checkInvariants(t, p)
			now += 10
		}
		return p.Report()
	}
	strict := run(false)
	borrow := run(true)
	if borrow.Utilization <= strict.Utilization {
		t.Fatalf("borrowing must raise utilization: strict %.3f vs borrow %.3f",
			strict.Utilization, borrow.Utilization)
	}
	if borrow.Borrows == 0 {
		t.Fatal("borrow mode recorded no borrows")
	}
	if strict.Borrows != 0 {
		t.Fatal("strict mode must not borrow")
	}
	// strict: team-a can never fund more than its 2-GPU quota
	var teamA TeamReport
	for _, tr := range strict.Teams {
		if tr.Name == "team-a" {
			teamA = tr
		}
	}
	if teamA.InUse[device.V100] > 2 {
		t.Fatalf("strict envelope breached: team-a funds %d > quota 2", teamA.InUse[device.V100])
	}
}

func TestQuotaBackedDemandReclaimsBorrowedLeases(t *testing.T) {
	inv := sched.Resources{device.V100: 16}
	p := New(Config{
		Inventory: inv,
		Teams: []TeamConfig{
			{Name: "team-a", Quota: sched.Resources{device.V100: 4}},
			{Name: "team-b", Quota: sched.Resources{device.V100: 12}},
		},
		AllowBorrowing: true,
	})
	p.Submit(elasticJob("a1", "neumf", 8, 0, "team-a"))
	p.Submit(elasticJob("a2", "resnet50", 8, 0, "team-a"))
	for now, i := 0.0, 0; i < 10; i++ {
		p.Tick(now)
		checkInvariants(t, p)
		now += 10
	}
	if p.teams["team-b"].lent[device.V100] == 0 {
		t.Fatal("setup: team-a should have borrowed from team-b")
	}
	heldBefore := p.Held("a1").Total() + p.Held("a2").Total()
	// team-b's quota-backed gang arrives: free pool is empty, so borrowed
	// leases must be preempted to fund it
	l, resv := p.Submit(workload.JobSpec{
		ID: "b1", Model: "vgg19", MaxP: 10, MinGPUs: 10, WorkSteps: 1e12,
		RequestedType: device.V100, Team: "team-b",
	})
	if l == nil {
		t.Fatalf("quota-backed gang must be admitted by reclaim, got reservation %+v", resv)
	}
	checkInvariants(t, p)
	rep := p.Report()
	if rep.Reclaims == 0 {
		t.Fatal("no reclaims recorded")
	}
	log := strings.Join(rep.Log, "\n")
	if !strings.Contains(log, "plane.preempt") || !strings.Contains(log, "quota-backed demand") {
		t.Fatalf("preemption not explained in log:\n%s", log)
	}
	heldAfter := p.Held("a1").Total() + p.Held("a2").Total()
	if heldAfter >= heldBefore {
		t.Fatal("borrowers must shrink on reclaim")
	}
	// survivors keep running: the preemption rode the Scale path, so the
	// remainder has a live plan (or the job fell idle cleanly)
	for _, id := range []string{"a1", "a2"} {
		if held := p.Held(id); held.Total() > 0 && p.jobs[id].intra.CurrentPlan().Throughput <= 0 {
			t.Fatalf("job %s holds %v with no live plan", id, held)
		}
	}
}

func TestManualReleaseRetiresExactLease(t *testing.T) {
	p := New(Config{Inventory: sched.Resources{device.V100: 8}})
	l, _ := p.Submit(workload.JobSpec{
		ID: "g", Model: "neumf", MaxP: 4, MinGPUs: 4, WorkSteps: 1e12,
		RequestedType: device.V100,
	})
	if l == nil {
		t.Fatal("admit failed")
	}
	if err := p.Release(l.ID); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, p)
	if p.Allocated() != 0 {
		t.Fatalf("release must return all GPUs, %d still allocated", p.Allocated())
	}
	if err := p.Release(l.ID); err == nil {
		t.Fatal("double release must error")
	}
	if err := p.Release("L9999"); err == nil {
		t.Fatal("unknown lease must error")
	}
}

func TestStrategiesPlaceDifferently(t *testing.T) {
	mk := func(s Strategy) *Plane {
		p := New(Config{Inventory: sched.Resources{device.V100: 16}, Strategy: s, NodeGPUs: 4})
		// two 2-GPU gangs then release the first: leaves node V100-000 half
		// used under bestfit
		l1, _ := p.Submit(workload.JobSpec{ID: "x", Model: "neumf", MaxP: 2, MinGPUs: 2, WorkSteps: 1e12, RequestedType: device.V100})
		p.Submit(workload.JobSpec{ID: "y", Model: "neumf", MaxP: 2, MinGPUs: 2, WorkSteps: 1e12, RequestedType: device.V100})
		if l1 == nil {
			t.Fatal("admit failed")
		}
		return p
	}
	best := mk(BestFit{})
	worst := mk(WorstFit{})
	bestShares := best.jobs["y"].leases[0].Nodes
	worstShares := worst.jobs["y"].leases[0].Nodes
	if bestShares[0].NodeID != "V100-000" {
		t.Fatalf("bestfit should co-locate on the fullest node, got %v", bestShares)
	}
	if worstShares[0].NodeID == "V100-000" {
		t.Fatalf("worstfit should spread to an empty node, got %v", worstShares)
	}
	if _, ok := StrategyByName("firstfit"); !ok {
		t.Fatal("firstfit should resolve")
	}
	if _, ok := StrategyByName("nope"); ok {
		t.Fatal("unknown strategy should not resolve")
	}
}

func TestFragmentationReport(t *testing.T) {
	p := New(Config{Inventory: sched.Resources{device.V100: 16}, Strategy: WorstFit{}, NodeGPUs: 4})
	// worstfit four 1-GPU gangs: every node partially used
	for _, id := range []string{"a", "b", "c", "d"} {
		p.Submit(workload.JobSpec{ID: id, Model: "neumf", MaxP: 1, MinGPUs: 1, WorkSteps: 1e12, RequestedType: device.V100})
	}
	rep := p.Report()
	if len(rep.Frag) != 1 {
		t.Fatalf("frag entries: %+v", rep.Frag)
	}
	f := rep.Frag[0]
	if f.PartialNodes != 4 || f.FreeInPartial != 12 || f.FragRatio != 1.0 {
		t.Fatalf("fragmentation: %+v", f)
	}
	// consolidating onto one node would move 3 of the 4 allocated GPUs
	if f.ConsolidationMoves != 3 {
		t.Fatalf("consolidation moves %d, want 3", f.ConsolidationMoves)
	}
}

func TestTenantTraceGeneration(t *testing.T) {
	teams := []string{"team-a", "team-b", "team-c"}
	jobs := workload.GenerateTenants(200, teams, 30, 7)
	seen := map[string]bool{}
	gangs := 0
	for _, j := range jobs {
		seen[j.Team] = true
		if j.Priority < 0 || j.Priority > 2 {
			t.Fatalf("priority %d out of range", j.Priority)
		}
		if j.MinGPUs != 0 {
			if j.MinGPUs != j.MaxP {
				t.Fatalf("gang floor %d != maxP %d", j.MinGPUs, j.MaxP)
			}
			gangs++
		}
	}
	for _, tm := range teams {
		if !seen[tm] {
			t.Fatalf("team %s never assigned", tm)
		}
	}
	if gangs == 0 || gangs == len(jobs) {
		t.Fatalf("gang share %d/%d should be a strict subset", gangs, len(jobs))
	}
	// same seed → identical trace; the base trace fields match Generate
	again := workload.GenerateTenants(200, teams, 30, 7)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("trace not deterministic at %d", i)
		}
	}
	base := workload.Generate(200, 30, 7)
	for i := range jobs {
		if jobs[i].ID != base[i].ID || jobs[i].MaxP != base[i].MaxP || jobs[i].ArrivalSec != base[i].ArrivalSec {
			t.Fatalf("tenant fields must overlay the base trace, job %d differs", i)
		}
	}
}

// TestThroughputFeedbackStaysWithItsJob: a measurement biased enough to
// refresh one job's performance model changes that job's companion and
// nothing else — not the process-wide capability every later job and
// cluster.Simulate read through CapabilityFor.
func TestThroughputFeedbackStaysWithItsJob(t *testing.T) {
	before := CapabilityFor("neumf")[device.V100]
	p := New(Config{Inventory: sched.Resources{device.V100: 2}})
	p.Submit(elasticJob("a", "neumf", 2, 0, ""))
	p.Tick(0)
	_, est := p.Placement("a", 2)
	// a healthy measurement first ends the check of the grant from zero GPUs,
	// so the biased one refreshes the model without also falling back to them
	for _, ratio := range []float64{1, 0.1} {
		if _, fell := p.Observe("a", est*ratio); fell {
			t.Fatalf("setup: fell back at %v of the estimate", ratio)
		}
	}
	if p.jobs["a"].intra.Companion.Caps[device.V100] == before {
		t.Fatal("setup: the measurement did not refresh the job's own model")
	}
	if got := CapabilityFor("neumf")[device.V100]; got != before {
		t.Fatalf("CapabilityFor(neumf)[V100] moved from %v to %v on one job's feedback", before, got)
	}
	checkInvariants(t, p)
}
