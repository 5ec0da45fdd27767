package dist

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/obs"
)

// TestLiveSoakCrashRecoveryBitwise extends the soak matrix to the live
// runtime and its two new fault sites: a crash during the end-of-phase shard
// ship to the directory, and a crash in the middle of a live migration. Every
// campaign must tear the live set down, re-bootstrap from the coordinator
// shard directory, and still finish bitwise identical to the uninterrupted
// in-process run.
func TestLiveSoakCrashRecoveryBitwise(t *testing.T) {
	campaigns := []struct {
		name    string
		timeout time.Duration
		plan    *faults.Plan
	}{
		{
			name:    "dial-crash",
			timeout: 1500 * time.Millisecond,
			plan: &faults.Plan{
				Seed:   21,
				Budget: 2,
				Rules:  map[faults.Site]faults.Rule{faults.Dial: {Prob: 1, Action: faults.Crash}},
			},
		},
		{
			name:    "gather-crash-and-drop",
			timeout: 10 * time.Second,
			plan: &faults.Plan{
				Seed:   22,
				Budget: 3,
				Rules: map[faults.Site]faults.Rule{
					faults.Gather:    {Prob: 0.6, Action: faults.Crash},
					faults.Broadcast: {Prob: 0.2, Action: faults.ConnDrop},
				},
			},
		},
		{
			// death during the incremental shard ship: the phase's training
			// work is complete, the directory dialog is not — the phase is
			// still all-or-nothing and the retry reproduces it bitwise
			name:    "shard-ship-crash",
			timeout: 10 * time.Second,
			plan: &faults.Plan{
				Seed:   23,
				Budget: 2,
				Rules:  map[faults.Site]faults.Rule{faults.ShardShip: {Prob: 1, Action: faults.Crash}},
			},
		},
		{
			// death mid-migration, after the reconfigure frame and before the
			// shard fetches complete: the half-migrated set is torn down and
			// the boundary re-runs from the directory
			name:    "migrate-crash",
			timeout: 10 * time.Second,
			plan: &faults.Plan{
				Seed:   24,
				Budget: 2,
				Rules:  map[faults.Site]faults.Rule{faults.Migrate: {Prob: 0.7, Action: faults.Crash}},
			},
		},
		{
			name:    "mixed-random",
			timeout: 4 * time.Second,
			plan: &faults.Plan{
				Seed:   25,
				Budget: 4,
				Rules: map[faults.Site]faults.Rule{
					faults.Dial:      {Prob: 0.05, Action: faults.Crash},
					faults.Gather:    {Prob: 0.08, Action: faults.Crash},
					faults.Broadcast: {Prob: 0.05, Action: faults.Delay, Delay: 20 * time.Millisecond},
					faults.ShardShip: {Prob: 0.15, Action: faults.Crash},
					faults.Migrate:   {Prob: 0.1, Action: faults.Crash},
				},
			},
		},
	}

	refCfg := distCfg(4)
	ref := inProcessReference(t, refCfg, "neumf", []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: soakTotalSteps()},
	})

	for _, tc := range campaigns {
		t.Run(tc.name, func(t *testing.T) {
			cfg := distCfg(4)
			cfg.DistTimeout = tc.timeout
			ckpt, err := Run(cfg, "neumf", soakPhases(),
				WithLiveMigration(),
				WithRetryPolicy(RetryPolicy{
					MaxRetries:  4,
					BaseBackoff: 5 * time.Millisecond,
					MaxBackoff:  50 * time.Millisecond,
				}),
				WithFaultPlan(tc.plan))
			if err != nil {
				t.Fatalf("live soak run failed (fired %d faults): %v", tc.plan.Fired(), err)
			}
			if tc.plan.Fired() == 0 {
				t.Fatal("campaign fired no faults — nothing was soaked")
			}
			t.Logf("fired %d faults (dial=%d gather=%d broadcast=%d shard-ship=%d migrate=%d)",
				tc.plan.Fired(), tc.plan.FiredAt(faults.Dial), tc.plan.FiredAt(faults.Gather),
				tc.plan.FiredAt(faults.Broadcast), tc.plan.FiredAt(faults.ShardShip), tc.plan.FiredAt(faults.Migrate))

			liveJob := restore(t, cfg, ckpt)
			if got, want := liveJob.GlobalStep(), soakTotalSteps(); got != want {
				t.Fatalf("progress %d, want %d", got, want)
			}
			if !core.ParamsEqual(liveJob, ref) {
				t.Fatal("crash-soaked live run diverged from the uninterrupted in-process run (must be bitwise identical)")
			}
		})
	}
}

// scaleDowntimes extracts per-scale-event downtime from a run's trace: the
// wall clock between each dist.scale-trigger event on the driver track and
// the first dist.first-step instant after it. The first trigger (cold start)
// is not a scale event and is skipped.
func scaleDowntimes(t *testing.T, tr *obs.Tracer) []time.Duration {
	t.Helper()
	var triggers, firstSteps []int64
	for _, track := range tr.Spans() {
		for _, sp := range track {
			switch sp.Name {
			case "dist.scale-trigger":
				triggers = append(triggers, sp.Start)
			case "dist.first-step":
				firstSteps = append(firstSteps, sp.Start)
			}
		}
	}
	if len(triggers) < 2 {
		t.Fatalf("trace has %d scale triggers, need at least 2", len(triggers))
	}
	var out []time.Duration
	for i, trig := range triggers {
		if i == 0 {
			continue
		}
		best := int64(-1)
		for _, fs := range firstSteps {
			if fs >= trig && (best < 0 || fs < best) {
				best = fs
			}
		}
		if best < 0 {
			t.Fatalf("no first-step instant after trigger %d", i)
		}
		out = append(out, time.Duration(best-trig))
	}
	return out
}

// TestLiveDowntimeSpeedup pins the point of the whole subsystem: on the
// largest model (vgg19), the wall clock a scale event steals — from the
// elasticity trigger to the first post-scale global step — must drop at
// least 5× under live migration versus the stop-restart policy.
//
// The schedule's scale events are the ones elasticity actually produces on a
// shared cluster: scale-in when resources are reclaimed, and a heterogeneous
// device swap. Every worker that survives such an event already holds the
// full canonical state, so stop-restart pays for serializing, re-shipping,
// re-decoding, and rebuilding state that never left the machine — while live
// migration moves only the EST context shards that change hosts. (Scale-out
// is exercised by the bitwise tests above; a process-fresh joiner must
// rebuild its job under either runtime, so it is not where the downtime win
// lives.)
func TestLiveDowntimeSpeedup(t *testing.T) {
	cfg := distCfg(4)
	mk := func() []Phase {
		return []Phase{
			{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), Steps: 2},
			{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 2},
			{Placement: core.EvenPlacement(4, device.V100, device.P100), Steps: 2},
			{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 2},
			{Placement: core.EvenPlacement(4, device.V100, device.P100), Steps: 2},
			{Placement: core.EvenPlacement(4, device.V100), Steps: 2},
		}
	}

	genTr := obs.New()
	genCkpt, err := Run(cfg, "vgg19", mk(), WithTracer(genTr))
	if err != nil {
		t.Fatal(err)
	}
	liveTr := obs.New()
	liveCkpt, err := Run(cfg, "vgg19", mk(), WithLiveMigration(), WithTracer(liveTr))
	if err != nil {
		t.Fatal(err)
	}
	// the speedup must not come from computing something else
	if !core.ParamsEqual(restore(t, cfg, genCkpt), restore(t, cfg, liveCkpt)) {
		t.Fatal("live and generation runs diverged (must be bitwise identical)")
	}

	// Compare per-event medians, not sums: the live window is a few hundred
	// microseconds, so a single GC cycle or scheduler stall landing on one
	// goroutine wake-up can multiply one sample and swamp a sum. The median
	// is the robust per-event statistic for a latency bound.
	median := func(ds []time.Duration) time.Duration {
		sorted := append([]time.Duration(nil), ds...)
		slices.Sort(sorted)
		return sorted[len(sorted)/2]
	}
	genMed := median(scaleDowntimes(t, genTr))
	liveMed := median(scaleDowntimes(t, liveTr))
	t.Logf("median scale-event downtime: generation %v, live %v (%.1fx)",
		genMed, liveMed, float64(genMed)/float64(liveMed))
	if liveMed*5 > genMed {
		t.Fatalf("live migration downtime %v is not ≥5x better than stop-restart %v", liveMed, genMed)
	}
}
