package controlplane

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runTenantScenario drives one full multi-team scenario: four teams, a
// generated tenant trace with gangs and priorities, borrowing on. A non-nil
// tracer receives the CatPlane mirror.
func runTenantScenario(tr *obs.Tracer) (*Plane, string, Report) {
	teams := []TeamConfig{
		{Name: "ads", Quota: sched.Resources{device.V100: 8, device.P100: 4, device.T4: 4}},
		{Name: "nlp", Quota: sched.Resources{device.V100: 8, device.P100: 4, device.T4: 4}},
		{Name: "rec", Quota: sched.Resources{device.V100: 8, device.P100: 4, device.T4: 4}},
		{Name: "vis", Quota: sched.Resources{device.V100: 8, device.P100: 4, device.T4: 4}},
	}
	inv := sched.Resources{device.V100: 32, device.P100: 16, device.T4: 16}
	p := New(Config{Inventory: inv, Teams: teams, AllowBorrowing: true, Trace: tr})
	jobs := workload.GenerateTenants(60, []string{"ads", "nlp", "rec", "vis"}, 20, 42)
	next := 0
	for tick := 0; tick < 200; tick++ {
		now := float64(tick) * 10
		for next < len(jobs) && jobs[next].ArrivalSec <= now {
			p.Submit(jobs[next])
			next++
		}
		p.Tick(now)
	}
	return p, strings.Join(p.DecisionLog(), "\n"), p.Report()
}

// TestFiftyPassDeterminism pins the D0 contract on the control plane:
// identical submissions produce byte-identical decision logs and identical
// reports across 50 fresh planes — and that log is, byte for byte, the one
// the plane wrote when each entry was still a formatted string. The counts
// are the ones the plane kept as separate tallies before Report read them off
// the records and the job registries, and the log folds to the final state.
func TestFiftyPassDeterminism(t *testing.T) {
	p, refLog, refRep := runTenantScenario(nil)
	if len(refRep.Log) != 869 || hashLog(refRep.Log) != "1a0725e95ba1c194" {
		t.Fatalf("decision log: %d lines hashing to %s, want 869 and 1a0725e95ba1c194", len(refRep.Log), hashLog(refRep.Log))
	}
	if refRep.LeasesMinted != 261 || refRep.Borrows != 33 || refRep.Reclaims != 6 {
		t.Fatalf("minted %d, borrows %d, reclaims %d; want 261, 33, 6", refRep.LeasesMinted, refRep.Borrows, refRep.Reclaims)
	}
	if refRep.Admitted != 55 || refRep.Finished != 7 || p.Decisions() != 1203 {
		t.Fatalf("admitted %d, finished %d, decisions %d; want 55, 7, 1203", refRep.Admitted, refRep.Finished, p.Decisions())
	}
	if err := foldLaw(p); err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass < 50; pass++ {
		_, log, rep := runTenantScenario(nil)
		if log != refLog {
			t.Fatalf("pass %d: decision log diverged from pass 0", pass)
		}
		if !reflect.DeepEqual(rep, refRep) {
			t.Fatalf("pass %d: report diverged: %+v vs %+v", pass, rep, refRep)
		}
	}
}

// TestTracedPlaneMirrorsLog: a tracer changes nothing the plane decides or
// reports, and receives one CatPlane event per log line, in order, named for
// the line's kind and carrying exactly the line's message — the log and the
// mirror are rendered by the same code.
func TestTracedPlaneMirrorsLog(t *testing.T) {
	_, refLog, refRep := runTenantScenario(nil)
	tr := obs.New(obs.WithClock(&obs.FixedClock{}))
	_, log, rep := runTenantScenario(tr)
	if log != refLog {
		t.Fatal("traced plane's decision log differs from the untraced one")
	}
	if !reflect.DeepEqual(rep, refRep) {
		t.Fatalf("traced plane's report differs: %+v vs %+v", rep, refRep)
	}
	var events []obs.Span
	for _, track := range tr.Spans() {
		for _, s := range track {
			if s.Cat == obs.CatPlane {
				events = append(events, s)
			}
		}
	}
	if len(events) != len(rep.Log) {
		t.Fatalf("%d CatPlane events for %d log lines", len(events), len(rep.Log))
	}
	for i, line := range rep.Log {
		// a line is "%10.1f %-13s %s": time, kind, message
		kind, msg := strings.TrimRight(line[11:24], " "), line[25:]
		if events[i].Name != kind || events[i].Detail != msg {
			t.Fatalf("line %d: event %q %q, log says %q %q", i, events[i].Name, events[i].Detail, kind, msg)
		}
	}
}

// TestLeaseIDMatchesSprintf: a lease's ID spells its sequence number as
// fmt's "L%04d" does, across the widths the padding changes at.
func TestLeaseIDMatchesSprintf(t *testing.T) {
	for seq := 0; seq <= 120_000; seq++ {
		if got, want := leaseID(seq), fmt.Sprintf("L%04d", seq); got != want {
			t.Fatalf("leaseID(%d) = %q, want %q", seq, got, want)
		}
	}
}
