package dist

import (
	"maps"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/obs"
)

// spanNames flattens a tracer's spans into a name → count map.
func spanNames(tr *obs.Tracer) map[string]int {
	names := map[string]int{}
	for _, track := range tr.Spans() {
		for _, s := range track {
			names[s.Name]++
		}
	}
	return names
}

// TestRunTracedMatchesUntraced: attaching a tracer to a whole distributed
// elastic run must not change its result — the traced checkpoint restores to
// bitwise-identical parameters — while the trace itself covers the driver,
// every worker's network exchanges, and the phase structure.
func TestRunTracedMatchesUntraced(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 4},
		{Placement: core.EvenPlacement(4, device.V100), Steps: 4},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			plain, err := Run(cfg, "neumf", phases, pol.opts...)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New()
			traced, err := Run(cfg, "neumf", phases, append([]Option{WithTracer(tr)}, pol.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if !core.ParamsEqual(restore(t, cfg, plain), restore(t, cfg, traced)) {
				t.Fatal("traced distributed run diverged from the untraced run")
			}

			tracks := map[string]bool{}
			for _, n := range tr.TrackNames() {
				tracks[n] = true
			}
			for _, want := range []string{"driver", "worker-0", "worker-1"} {
				if !tracks[want] {
					t.Errorf("track %q missing (got %v)", want, tr.TrackNames())
				}
			}
			names := spanNames(tr)
			if names["dist.phase"] != len(phases) {
				t.Errorf("dist.phase spans = %d, want %d", names["dist.phase"], len(phases))
			}
			// leader-side and follower-side network seams (phase 0 has a follower)
			for _, want := range []string{
				"net.gather", "net.reduce", "net.broadcast", "net.ckpt-ship",
				"net.send-grads", "net.wait-reduced", "net.shard-ship", "live.reconfigure",
			} {
				if names[want] == 0 {
					t.Errorf("no %q spans recorded (got %v)", want, names)
				}
			}
		})
	}
}

// TestRestartPolicyBootstrapsEveryPhase pins that the default policy is a
// real stop-restart and not a relabelled migration: every worker of every
// phase is reconfigured exactly once, from nothing (phase 0) or from the
// directory's container (every later phase) and never by migrating, while
// the same schedule under the live policy reconfigures by migration at every
// boundary it can.
func TestRestartPolicyBootstrapsEveryPhase(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 2},
		{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100), Steps: 2},
		{Placement: core.EvenPlacement(4, device.V100), Steps: 2},
	}
	kinds := func(opts ...Option) map[int]int {
		tr := obs.New()
		if _, err := Run(cfg, "neumf", phases, append(opts, WithTracer(tr))...); err != nil {
			t.Fatal(err)
		}
		byKind := map[int]int{}
		for _, track := range tr.Spans() {
			for _, s := range track {
				if s.Name == "live.reconfigure" {
					byKind[int(s.A0)]++
				}
			}
		}
		return byKind
	}
	if got, want := kinds(), (map[int]int{kindFresh: 2, kindContainer: 3 + 1}); !maps.Equal(got, want) {
		t.Errorf("restart policy reconfigure kinds %v, want %v", got, want)
	}
	if got, want := kinds(WithLiveMigration()), (map[int]int{kindFresh: 2, kindMigrate: 3 + 1}); !maps.Equal(got, want) {
		t.Errorf("live policy reconfigure kinds %v, want %v", got, want)
	}
}

// TestRunTracesFaultsAndRetries: with an injected crash and a retry budget,
// the trace's driver track must log both the fault firing and the retry
// decision, and the run must still converge to the uninterrupted reference.
func TestRunTracesFaultsAndRetries(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 6},
	}
	plan := &faults.Plan{
		Seed:   1,
		Budget: 1,
		Rules:  map[faults.Site]faults.Rule{faults.Gather: {Prob: 1, Action: faults.Crash}},
	}
	tr := obs.New()
	ckpt, err := Run(cfg, "neumf", phases,
		WithRetryPolicy(RetryPolicy{MaxRetries: 2, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}),
		WithFaultPlan(plan),
		WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fired() == 0 {
		t.Fatal("fault plan never fired — nothing to observe")
	}
	names := spanNames(tr)
	if names["fault.fire"] != int(plan.Fired()) {
		t.Errorf("fault.fire events = %d, want %d", names["fault.fire"], plan.Fired())
	}
	if names["dist.retry"] == 0 {
		t.Error("no dist.retry events on the driver track")
	}
	distJob := restore(t, cfg, ckpt)
	ref := inProcessReference(t, cfg, "neumf", phases)
	if !core.ParamsEqual(distJob, ref) {
		t.Fatal("crash-recovered traced run diverged from the reference")
	}
}
