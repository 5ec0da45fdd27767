package dist

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
)

// soakPhases is the elastic schedule every soak campaign runs: six phases
// sweeping scale-out, scale-in, and a heterogeneous mix.
func soakPhases() []Phase {
	return []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 3},
		{Placement: core.EvenPlacement(4, device.V100), Steps: 3},
		{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100), Steps: 3},
		{Placement: core.EvenPlacement(4, device.V100, device.P100), Steps: 3},
		{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), Steps: 3},
		{Placement: core.EvenPlacement(4, device.T4, device.V100), Steps: 3},
	}
}

func soakTotalSteps() int {
	total := 0
	for _, ph := range soakPhases() {
		total += ph.Steps
	}
	return total
}

// TestSoakCrashRecoveryBitwise is the capstone of the fault-hardened
// runtime: seeded fault campaigns — crashes at the dial, gather, and
// checkpoint-ship sites, connection drops, and a mixed randomized sweep —
// are injected into a six-phase elastic TCP run under the restart policy.
// Every campaign must recover via epoch-fenced, backoff-retried phase
// attempts and finish with a checkpoint bitwise identical to an
// uninterrupted in-process run: the paper's consistency guarantee extended
// to the failure path.
//
// Convergence is provable, not probabilistic: each fired fault dooms at
// most one phase attempt, and every campaign keeps Budget ≤ MaxRetries.
func TestSoakCrashRecoveryBitwise(t *testing.T) {
	campaigns := []struct {
		name    string
		timeout time.Duration
		plan    *faults.Plan
	}{
		{
			// a worker that dies before rendezvous: admission times out and
			// the phase retries under a new epoch
			name:    "dial-crash",
			timeout: 1500 * time.Millisecond,
			plan: &faults.Plan{
				Seed:   11,
				Budget: 2,
				Rules:  map[faults.Site]faults.Rule{faults.Dial: {Prob: 1, Action: faults.Crash}},
			},
		},
		{
			// mid-step death during gradient gather, plus a connection
			// dropped without an error during broadcast
			name:    "gather-crash-and-drop",
			timeout: 10 * time.Second,
			plan: &faults.Plan{
				Seed:   12,
				Budget: 3,
				Rules: map[faults.Site]faults.Rule{
					faults.Gather:    {Prob: 0.6, Action: faults.Crash},
					faults.Broadcast: {Prob: 0.2, Action: faults.ConnDrop},
				},
			},
		},
		{
			// death while shipping the on-demand checkpoint: the phase's
			// training work is complete but the phase must still be
			// all-or-nothing — the retry reproduces it bitwise
			name:    "ckpt-ship-crash",
			timeout: 10 * time.Second,
			plan: &faults.Plan{
				Seed:   13,
				Budget: 2,
				Rules:  map[faults.Site]faults.Rule{faults.CkptShip: {Prob: 1, Action: faults.Crash}},
			},
		},
		{
			// the randomized sweep: every site armed at once, moderate
			// probabilities, plus injected stalls shorter than the deadline
			name:    "mixed-random",
			timeout: 4 * time.Second,
			plan: &faults.Plan{
				Seed:   14,
				Budget: 4,
				Rules: map[faults.Site]faults.Rule{
					faults.Dial:      {Prob: 0.05, Action: faults.Crash},
					faults.Gather:    {Prob: 0.08, Action: faults.Crash},
					faults.Broadcast: {Prob: 0.05, Action: faults.Delay, Delay: 20 * time.Millisecond},
					faults.CkptShip:  {Prob: 0.15, Action: faults.Crash},
				},
			},
		},
	}

	// the uninterrupted reference: same workload, same total steps, fixed
	// placement, single process
	refCfg := distCfg(4)
	ref := inProcessReference(t, refCfg, "neumf", []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: soakTotalSteps()},
	})

	for _, tc := range campaigns {
		t.Run(tc.name, func(t *testing.T) {
			cfg := distCfg(4)
			cfg.DistTimeout = tc.timeout
			ckpt, err := Run(cfg, "neumf", soakPhases(),
				WithRetryPolicy(RetryPolicy{
					MaxRetries:  4,
					BaseBackoff: 5 * time.Millisecond,
					MaxBackoff:  50 * time.Millisecond,
				}),
				WithFaultPlan(tc.plan))
			if err != nil {
				t.Fatalf("soak run failed (fired %d faults): %v", tc.plan.Fired(), err)
			}
			if tc.plan.Fired() == 0 {
				t.Fatal("campaign fired no faults — nothing was soaked")
			}
			t.Logf("fired %d faults (dial=%d gather=%d broadcast=%d ckpt-ship=%d)",
				tc.plan.Fired(), tc.plan.FiredAt(faults.Dial), tc.plan.FiredAt(faults.Gather),
				tc.plan.FiredAt(faults.Broadcast), tc.plan.FiredAt(faults.CkptShip))

			distJob := restore(t, cfg, ckpt)
			if got, want := distJob.GlobalStep(), soakTotalSteps(); got != want {
				t.Fatalf("progress %d, want %d", got, want)
			}
			if !core.ParamsEqual(distJob, ref) {
				t.Fatal("crash-soaked elastic run diverged from the uninterrupted in-process run (must be bitwise identical)")
			}
		})
	}
}
