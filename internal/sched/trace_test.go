package sched

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/obs"
)

// schedEvents flattens the "sched" track into (name, detail) pairs.
func schedEvents(tr *obs.Tracer) []obs.Span {
	var out []obs.Span
	for _, track := range tr.Spans() {
		for _, s := range track {
			if s.Cat == obs.CatSched {
				out = append(out, s)
			}
		}
	}
	return out
}

// TestDecisionLogRecordsWhy: an apply → propose → grant → fallback sequence
// leaves a structured decision trail naming each choice and its inputs.
func TestDecisionLogRecordsWhy(t *testing.T) {
	tr := obs.New()
	s := NewIntraJob("job-0", NewCompanion(8, caps()), false)
	s.Trace = tr

	if _, ok := s.Apply(Counts{device.V100: 2}); !ok {
		t.Fatal("apply failed")
	}
	base := s.CurrentPlan().Throughput
	props := s.Proposals(Resources{device.V100: 2}, 1)
	if len(props) == 0 {
		t.Fatal("expected a proposal")
	}
	if _, ok := s.Grant(props[0]); !ok {
		t.Fatal("grant failed")
	}
	if _, fell := s.ObserveThroughput(base * 0.5); !fell {
		t.Fatal("expected fallback")
	}
	// a homogeneity rejection also logs
	hom := NewIntraJob("job-1", NewCompanion(4, caps()), true)
	hom.Trace = tr
	if _, ok := hom.Apply(Counts{device.V100: 1, device.P100: 1}); ok {
		t.Fatal("mixed apply should fail for homogeneous-only job")
	}

	events := schedEvents(tr)
	byName := map[string]string{}
	for _, e := range events {
		byName[e.Name] = e.Detail
	}
	for _, want := range []string{"sched.apply", "sched.grant", "sched.fallback", "sched.reject"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("decision log missing %q (got %v)", want, byName)
		}
	}
	if d := byName["sched.apply"]; !strings.Contains(d, "job=job-0") || !strings.Contains(d, "res=") {
		t.Errorf("sched.apply detail should name the job and resources: %q", d)
	}
	if d := byName["sched.grant"]; !strings.Contains(d, "speedup=") {
		t.Errorf("sched.grant detail should carry the speedup: %q", d)
	}
}

// TestRoundPassLogsAccepts: an inter-job round on a free pool logs each
// accepted proposal and a round summary with the remaining pool.
func TestRoundPassLogsAccepts(t *testing.T) {
	tr := obs.New()
	free := Resources{device.V100: 4}
	s := NewIntraJob("job-0", NewCompanion(8, caps()), false)
	s.Apply(Counts{device.V100: 1})
	props := s.Proposals(free, 4)
	if len(props) == 0 {
		t.Fatal("expected proposals")
	}
	accepted := RoundPass(GreedyPolicy{}, free, props, tr)
	if len(accepted) == 0 {
		t.Fatal("expected the round to accept something")
	}
	events := schedEvents(tr)
	var accepts int
	var round string
	for _, e := range events {
		switch e.Name {
		case "sched.accept":
			accepts++
		case "sched.round":
			round = e.Detail
		}
	}
	if accepts != len(accepted) {
		t.Errorf("sched.accept events = %d, want %d", accepts, len(accepted))
	}
	if !strings.Contains(round, "accepted") || !strings.Contains(round, "free=") {
		t.Errorf("sched.round summary %q should report accept count and pool", round)
	}
}

// TestDecisionLogDoesNotSteer: the same scheduling sequence with and without
// a tracer must make identical decisions — the log observes, never steers.
func TestDecisionLogDoesNotSteer(t *testing.T) {
	run := func(tr *obs.Tracer) (Counts, []Proposal) {
		s := NewIntraJob("job-0", NewCompanion(8, caps()), false)
		s.Trace = tr
		free := Resources{device.V100: 3, device.P100: 2}
		s.Apply(Counts{device.V100: 1})
		props := s.Proposals(free, 8)
		accepted := RoundPass(GreedyPolicy{}, free, props, tr)
		for _, pr := range accepted {
			s.Grant(pr)
		}
		s.ObserveThroughput(s.CurrentPlan().Throughput * 0.4) // force fallback
		return s.Current(), accepted
	}
	plainRes, plainAcc := run(nil)
	tracedRes, tracedAcc := run(obs.New())
	if plainRes != tracedRes {
		t.Fatalf("tracing changed the held resources: %s vs %s", plainRes, tracedRes)
	}
	if len(plainAcc) != len(tracedAcc) {
		t.Fatalf("tracing changed accepted proposals: %d vs %d", len(plainAcc), len(tracedAcc))
	}
	for i := range plainAcc {
		if plainAcc[i] != tracedAcc[i] {
			t.Fatalf("proposal %d differs: %+v vs %+v", i, plainAcc[i], tracedAcc[i])
		}
	}
}
