package sched

import (
	"testing"

	"repro/internal/device"
)

// TestPreemptReleasesAndReplans covers the reclaim path: the preempted GPUs
// come back to the caller and the job re-plans on the remainder.
func TestPreemptReleasesAndReplans(t *testing.T) {
	s := NewIntraJob("j", NewCompanion(4, caps()), false)
	if _, ok := s.Apply(Counts{device.V100: 4}); !ok {
		t.Fatal("apply failed")
	}
	release, idle := s.Preempt(Counts{device.V100: 2})
	if idle {
		t.Fatal("job should keep running on the remainder")
	}
	if release[device.V100] != 2 || release.Total() != 2 {
		t.Fatalf("release %v, want 2 V100", release)
	}
	if s.Current().Total() != 2 {
		t.Fatalf("cur %v, want 2 GPUs", s.Current())
	}
	if s.CurrentPlan().Throughput <= 0 {
		t.Fatal("remainder must have a live plan")
	}
}

// TestPreemptClampsToHeld: taking more than the job holds releases only what
// it holds and the job falls idle.
func TestPreemptClampsToHeld(t *testing.T) {
	s := NewIntraJob("j", NewCompanion(4, caps()), false)
	s.Apply(Counts{device.V100: 2})
	release, idle := s.Preempt(Counts{device.V100: 5, device.T4: 3})
	if !idle {
		t.Fatal("job should fall idle")
	}
	if release[device.V100] != 2 || release.Total() != 2 {
		t.Fatalf("release %v, want exactly the 2 held V100s", release)
	}
	if s.Current().Total() != 0 || s.CurrentPlan().Throughput != 0 {
		t.Fatal("idle job must hold nothing and have no plan")
	}
}

// TestPreemptThenFallbackNeverDoubleReleases is the regression test for the
// double-release hazard: a job that scaled out, then was preempted below its
// pre-scale-out state, must NOT also fall back on a later low throughput
// observation — the fallback snapshot describes GPUs the preemption already
// returned, and releasing against it would hand the pool the same GPUs twice
// (and a negative per-type delta), corrupting lease accounting.
func TestPreemptThenFallbackNeverDoubleReleases(t *testing.T) {
	s := NewIntraJob("j", NewCompanion(8, caps()), false)
	if _, ok := s.Apply(Counts{device.V100: 2}); !ok {
		t.Fatal("apply failed")
	}
	if _, ok := s.Grant(Proposal{JobID: "j", Type: device.V100, Count: 2}); !ok {
		t.Fatal("grant failed")
	}
	// pool-side ledger: the job holds 4; everything released must sum with
	// the final holding back to exactly 4
	released, _ := s.Preempt(Counts{device.V100: 3})
	// low measurement right after the preemption: without the fix this
	// falls back to prev={V100:2} and "releases" cur-prev = 1-2 = -1
	fb, fellBack := s.ObserveThroughput(0.01)
	if fellBack {
		t.Fatal("fallback after preemption must be cancelled")
	}
	for t2, n := range fb {
		released[t2] += n
	}
	for ty, n := range released {
		if n < 0 {
			t.Fatalf("negative release for %v: %v", device.Type(ty), released)
		}
	}
	if got := released.Total() + s.Current().Total(); got != 4 {
		t.Fatalf("accounting broken: released %v + held %v = %d, want 4",
			released, s.Current(), got)
	}
	if s.Current()[device.V100] != 1 {
		t.Fatalf("job should keep the post-preemption single GPU, holds %v", s.Current())
	}
}

// TestFallbackStillWorksWithoutPreemption: the fix must not disable the
// legitimate slowdown fallback.
func TestFallbackStillWorksWithoutPreemption(t *testing.T) {
	s := NewIntraJob("j", NewCompanion(8, caps()), false)
	s.Apply(Counts{device.V100: 2})
	s.Grant(Proposal{JobID: "j", Type: device.V100, Count: 2})
	release, fellBack := s.ObserveThroughput(0.01)
	if !fellBack {
		t.Fatal("slowdown fallback expected")
	}
	if release[device.V100] != 2 {
		t.Fatalf("fallback should release the granted 2 V100s, got %v", release)
	}
	if s.Current()[device.V100] != 2 {
		t.Fatalf("job should revert to its pre-grant 2 V100s, holds %v", s.Current())
	}
}
