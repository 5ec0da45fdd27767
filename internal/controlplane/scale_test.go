package controlplane

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/workload"
)

// benchInventory is a 3072-GPU fleet (the paper's §5.3 co-location scale).
var benchInventory = sched.Resources{device.V100: 1536, device.P100: 768, device.T4: 768}

func benchTeams() []TeamConfig {
	quota := sched.Resources{device.V100: 384, device.P100: 192, device.T4: 192}
	var out []TeamConfig
	for _, name := range []string{"ads", "nlp", "rec", "vis"} {
		out = append(out, TeamConfig{Name: name, Quota: quota.Clone()})
	}
	return out
}

// runScaleScenario drives a dense multi-team workload over the 3072-GPU
// fleet and returns the plane for inspection.
func runScaleScenario(ticks int) *Plane {
	return replayTenants(workload.GenerateTenants(400, []string{"ads", "nlp", "rec", "vis"}, 5, 17), ticks)
}

// replayTenants replays jobs for ticks 10-s ticks on the 3072-GPU fleet with
// borrowing on and the plane's default best-fit packing: every job that has
// arrived is submitted, then the plane ticks.
func replayTenants(jobs []workload.JobSpec, ticks int) *Plane {
	p := New(Config{
		Inventory:      benchInventory,
		Teams:          benchTeams(),
		AllowBorrowing: true,
	})
	next := 0
	for tick := 0; tick < ticks; tick++ {
		now := float64(tick) * 10
		for next < len(jobs) && jobs[next].ArrivalSec <= now {
			p.Submit(jobs[next])
			next++
		}
		p.Tick(now)
	}
	return p
}

// hashLog folds a decision log into one number: FNV-64a over every line and
// its newline, the fold cmd/bench's plane_replay oracle uses.
func hashLog(log []string) string {
	h := fnv.New64a()
	for _, line := range log {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSchedulerThroughputAtScale pins the scale scenario — 400 jobs over a
// 3000+ GPU four-team fleet — to the decision sequence of the commit that
// introduced typed decision records: the exact counts, and the rendered log
// byte for byte. plane_replay in cmd/bench is where its speed is measured.
func TestSchedulerThroughputAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale scenario in -short mode")
	}
	if benchInventory.Total() < 3000 {
		t.Fatalf("fleet %d GPUs, want >= 3000", benchInventory.Total())
	}
	p := runScaleScenario(300)
	checkInvariants(t, p)
	rep := p.Report()
	if got := p.Decisions(); got != 16630 {
		t.Errorf("%d admission decisions, want 16630", got)
	}
	if got := len(rep.Log); got != 49170 {
		t.Errorf("%d log lines, want 49170", got)
	}
	if got := hashLog(rep.Log); got != "7f66c035508dc8da" {
		t.Errorf("decision log hashes to %s, want 7f66c035508dc8da", got)
	}
	if rep.LeasesMinted != 16329 {
		t.Errorf("%d leases minted, want 16329", rep.LeasesMinted)
	}
	t.Logf("decisions=%d minted=%d util=%.3f borrows=%d reclaims=%d",
		p.Decisions(), rep.LeasesMinted, rep.Utilization, rep.Borrows, rep.Reclaims)
}

// TestTickAllocRegression is the tripwire for the tick's allocation count,
// which a timer on a shared box cannot be: heap allocations per op of the
// scale scenario (an op is one tick with its Submits). Measured 489 on
// go1.24 (the same scenario allocated 9,151 per tick while the log was
// strings and plans were keyed by rendered text); the bound is 1.5x that.
func TestTickAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("scale scenario in -short mode")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful uninstrumented")
	}
	const ticks, bound = 300, 735
	runScaleScenario(ticks / 10) // fills the process-wide capability cache
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := runScaleScenario(ticks)
	runtime.ReadMemStats(&m1)
	if got := float64(m1.Mallocs-m0.Mallocs) / ticks; got > bound {
		t.Fatalf("%.0f allocations per tick, want <= %d", got, bound)
	} else {
		t.Logf("%.0f allocations per tick over %d decisions", got, p.Decisions())
	}
}

// BenchmarkPlaneReplay is the plane_replay workload's op as a Go benchmark,
// for profiling (make prof-plane): the 3072-GPU four-team fleet replaying a
// 1,000-job tenant trace for 750 ticks, one op per whole replay. The first
// replay, outside the timer, fills the process-wide capability cache.
func BenchmarkPlaneReplay(b *testing.B) {
	const ticks = 750
	jobs := workload.GenerateTenants(1000, []string{"ads", "nlp", "rec", "vis"}, 5, 1)
	replayTenants(jobs, ticks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayTenants(jobs, ticks)
	}
}
