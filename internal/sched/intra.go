package sched

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
)

// Proposal is a resource request an intra-job scheduler submits to the
// inter-job scheduler: an incremental, homogeneous batch of GPUs and the
// estimated speedup it buys.
type Proposal struct {
	JobID string
	// Add is the incremental request (a single GPU type, per §3.4).
	Type  device.Type
	Count int
	// SpeedupTotal is estimated new/current throughput; SpeedupPerGPU is
	// (SpeedupTotal−1)/Count, the inter-job scheduler's ranking key.
	SpeedupTotal  float64
	SpeedupPerGPU float64
}

// IntraJob coordinates one job's ESTs and its currently allocated GPUs.
type IntraJob struct {
	JobID     string
	Companion *Companion
	// HomogeneousOnly restricts plans to a single GPU type — the policy for
	// jobs whose model relies on vendor kernels (D2 unavailable).
	HomogeneousOnly bool
	// Trace, when non-nil, receives the structured decision log (see
	// trace.go). Decisions never depend on it.
	Trace *obs.Tracer

	cur     Counts
	curPlan Plan
	// prev remembers the pre-scale-out state for the slowdown fallback.
	prev      Counts
	prevPlan  Plan
	scaledOut bool
	// fellFrom is the vector the last fallback left, and fellGen the model
	// generation it was measured under: explore skips exactly that step while
	// neither the holdings (any apply clears it) nor the model has moved, so a
	// fallback is not re-proposed and re-granted on the next round.
	fellFrom Counts
	fellGen  uint64

	// memo is the last Proposals answer and memoKey everything it is a
	// function of; see Proposals.
	memoKey proposalKey
	memo    []Proposal
}

// proposalKey is everything one Proposals answer depends on. The free pool
// enters only through addable (per type, what may be explored after the MaxP
// and free caps), so a pool that moved without moving those caps still hits;
// gen covers the performance model, curThr the active plan (which a
// capability update leaves stale until the next Apply), and skip the vector
// a fallback left.
type proposalKey struct {
	cp                  *Companion
	gen                 uint64
	jobID               string
	held, addable, skip Counts
	curThr              float64
	k                   int
}

// fallbackTol is the measured/estimated throughput ratio below which a job
// that just scaled out falls back.
const fallbackTol = 0.8

// NewIntraJob builds the intra-job scheduler.
func NewIntraJob(jobID string, cp *Companion, homogeneousOnly bool) *IntraJob {
	return &IntraJob{JobID: jobID, Companion: cp, HomogeneousOnly: homogeneousOnly}
}

// Current returns the held resources.
func (s *IntraJob) Current() Counts { return s.cur }

// CurrentPlan returns the active plan.
func (s *IntraJob) CurrentPlan() Plan { return s.curPlan }

// admissible filters a resource vector through the homogeneity policy.
func (s *IntraJob) admissible(r Counts) bool {
	if !s.HomogeneousOnly {
		return true
	}
	types := 0
	for _, n := range r {
		if n > 0 {
			types++
		}
	}
	return types <= 1
}

// Apply is Role-1/Role-3: accept a (possibly changed) resource allocation
// and select the best EST-to-GPU configuration for it. Returns false when
// the job cannot run on the given resources (it then holds zero GPUs).
func (s *IntraJob) Apply(r Counts) (Plan, bool) {
	if !s.admissible(r) {
		logDecision(s.Trace, "sched.reject", int64(r.Total()), 0, func() string {
			return fmt.Sprintf("job=%s res=%s violates homogeneity policy", s.JobID, r)
		})
		return Plan{}, false
	}
	s.fellFrom = Counts{}
	p, ok := s.Companion.PlanFor(r)
	if !ok {
		s.cur, s.curPlan = Counts{}, Plan{}
		logDecision(s.Trace, "sched.reject", int64(r.Total()), 0, func() string {
			return fmt.Sprintf("job=%s res=%s has no feasible plan", s.JobID, r)
		})
		return Plan{}, false
	}
	s.cur, s.curPlan = r, p
	logDecision(s.Trace, "sched.apply", int64(r.Total()), int64(p.NEST), func() string {
		return fmt.Sprintf("job=%s res=%s est-throughput=%.3f", s.JobID, r, p.Throughput)
	})
	return p, true
}

// TrimUnused drops GPU types the active plan assigns no ESTs to (their
// capability would be pure waste) and returns them for release to the
// cluster pool (none: the zero vector).
func (s *IntraJob) TrimUnused() Counts {
	var released Counts
	next := s.cur
	for t, n := range s.cur {
		if n > 0 && s.curPlan.ESTsPerGPU[t] == 0 {
			released[t], next[t] = n, 0
		}
	}
	if released.Total() == 0 {
		return Counts{}
	}
	logDecision(s.Trace, "sched.trim", int64(released.Total()), 0, func() string {
		return fmt.Sprintf("job=%s releasing unused %s", s.JobID, released)
	})
	// a trim of a type the fallback snapshot holds leaves that snapshot
	// describing GPUs the job no longer has, as a preemption does
	for t, n := range released {
		s.scaledOut = s.scaledOut && (n == 0 || s.prev[t] == 0)
	}
	s.Apply(next)
	return released
}

// Proposals is Role-2: explore incremental homogeneous scale-outs against
// the free pool and return the top-K by estimated speedup.
//
// It is a pure function of proposalKey, and between control-plane ticks most
// jobs' keys do not move, so the last answer is remembered and returned while
// the key is unchanged. Nothing invalidates it: every input is in the key.
// The caller owns the returned slice.
func (s *IntraJob) Proposals(free Resources, k int) []Proposal {
	return s.AppendProposals(nil, free, k) // nil when there are none
}

// AppendProposals is Proposals appending its answer to dst, for a caller
// that gathers every job's proposals into one buffer of its own.
func (s *IntraJob) AppendProposals(dst []Proposal, free Resources, k int) []Proposal {
	key := proposalKey{
		cp: s.Companion, gen: s.Companion.gen, jobID: s.JobID,
		held: s.cur, curThr: s.curPlan.Throughput, k: k,
	}
	if s.fellGen == s.Companion.gen {
		key.skip = s.fellFrom
	}
	idle := s.cur.Total() == 0
	for t := range key.addable {
		// homogeneous-only: the type we already hold (or any single type if idle)
		if s.HomogeneousOnly && !idle && s.cur[t] == 0 {
			continue
		}
		// Exploration is bounded per type at maxP GPUs: each GPU of a type
		// the plan uses runs at least one EST, so holding more than maxP of
		// one type only adds waste-canceled capacity — the plan throughput
		// is flat beyond that point and the extra proposals are dominated.
		// This bounds a round to O(types × maxP) plan evaluations instead of
		// O(types × pool), which is what keeps thousand-GPU free pools (the
		// control plane's regime) schedulable.
		if n := min(s.Companion.MaxP-s.cur[t], free[device.Type(t)]); n > 0 {
			key.addable[t] = n
		}
	}
	if key != s.memoKey {
		s.memoKey, s.memo = key, s.explore(key.addable, key.skip, k)
	}
	return append(dst, s.memo...)
}

// explore evaluates every add of 1..addable[t] GPUs of each type against the
// plan database, except the one that reaches skip, and ranks the ones that
// speed the job up.
func (s *IntraJob) explore(addable, skip Counts, k int) []Proposal {
	var out []Proposal
	curThr := s.curPlan.Throughput
	for t, maxAdd := range addable {
		for add := 1; add <= maxAdd; add++ {
			next := s.cur
			next[t] += add
			if next == skip {
				continue
			}
			p, ok := s.Companion.PlanFor(next)
			if !ok || p.Throughput <= 0 {
				continue
			}
			var speedup, perGPU float64
			if curThr > 0 {
				speedup = p.Throughput / curThr
				if speedup <= 1 {
					continue
				}
				perGPU = (speedup - 1) / float64(add)
			} else {
				// An idle job (minimum GPUs is zero) values any allocation
				// maximally: rank its proposals ahead of running jobs'
				// incremental requests by throughput-per-GPU, so the greedy
				// tie rule ("same speedup → more GPUs") lets it claim its
				// full useful allocation in one grant.
				speedup = p.Throughput
				perGPU = 1e6 * p.Throughput / float64(add)
			}
			out = append(out, Proposal{
				JobID: s.JobID, Type: device.Type(t), Count: add,
				SpeedupTotal:  speedup,
				SpeedupPerGPU: perGPU,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SpeedupPerGPU != out[j].SpeedupPerGPU {
			return out[i].SpeedupPerGPU > out[j].SpeedupPerGPU
		}
		return out[i].Count > out[j].Count
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Grant is Role-3 for an accepted proposal: scale out onto the granted GPUs,
// remembering the previous state for the slowdown fallback.
func (s *IntraJob) Grant(pr Proposal) (Plan, bool) {
	s.prev, s.prevPlan = s.cur, s.curPlan
	next := s.cur
	next[pr.Type] += pr.Count
	p, ok := s.Apply(next)
	if ok {
		s.scaledOut = true
		logDecision(s.Trace, "sched.grant", int64(pr.Count), 1, func() string { return proposalDetail(pr) })
	}
	return p, ok
}

// Preempt is the reclaim path: remove up to `take` from the held resources
// and re-plan on the remainder. The scale-in rides the same Apply/plan
// machinery as a voluntary trim — EasyScale's bitwise-consistent Scale path
// makes it free of accuracy cost — and it cancels any pending scale-out
// fallback: after a preemption the saved pre-scale-out state no longer
// describes resources the job holds, and letting a later ObserveThroughput
// fall back against it would release the reclaimed GPUs a second time.
//
// The returned release is everything the job no longer holds: the preempted
// GPUs, plus the whole remainder when no feasible plan survives on it (the
// job then falls idle and fellIdle is true).
func (s *IntraJob) Preempt(take Counts) (release Counts, fellIdle bool) {
	var rel Counts
	next := s.cur
	for t := range next {
		if n := min(take[t], next[t]); n > 0 {
			rel[t] = n
			next[t] -= n
		}
	}
	// a preemption invalidates the fallback snapshot even when it takes
	// nothing the job holds — the caller has decided the old state is gone
	s.scaledOut = false
	if rel.Total() == 0 {
		return Counts{}, false
	}
	logDecision(s.Trace, "sched.preempt", int64(rel.Total()), int64(next.Total()), func() string {
		return fmt.Sprintf("job=%s reclaimed %s keeping %s", s.JobID, rel, next)
	})
	if next.Total() == 0 {
		s.cur, s.curPlan = Counts{}, Plan{}
		return rel, true
	}
	if _, ok := s.Apply(next); !ok {
		// the remainder cannot host the job: everything comes back
		for t, n := range next {
			if n > 0 {
				rel[t] += n
			}
		}
		s.cur, s.curPlan = Counts{}, Plan{}
		return rel, true
	}
	return rel, false
}

// ObserveThroughput feeds a measured aggregate throughput back. If the job
// recently scaled out and the measurement falls short of the estimate, the
// job falls back to its previous resources and reports the GPUs to release;
// the measurement also refreshes the companion's database when it biases.
func (s *IntraJob) ObserveThroughput(measured float64) (release Counts, fellBack bool) {
	if s.curPlan.Throughput > 0 && measured > 0 {
		ratio := measured / s.curPlan.Throughput
		if ratio < 0.5 || ratio > 2 {
			// significant bias: refresh the dominant type's capability
			for t, n := range s.cur {
				if n > 0 && s.curPlan.ESTsPerGPU[t] > 0 {
					s.Companion.UpdateCapability(device.Type(t), s.Companion.Caps[t]*ratio)
					break
				}
			}
		}
	}
	if s.scaledOut && s.curPlan.Throughput > 0 && measured < s.curPlan.Throughput*fallbackTol {
		logDecision(s.Trace, "sched.fallback", int64(s.cur.Total()), int64(s.prev.Total()), func() string {
			return fmt.Sprintf("job=%s measured=%.3f below %.0f%% of estimate %.3f: reverting to %s",
				s.JobID, measured, fallbackTol*100, s.curPlan.Throughput, s.prev)
		})
		// clamp at zero per type: after an intervening preemption (which
		// clears scaledOut, so this is defensive) cur can be below prev, and
		// a negative release would corrupt the caller's pool accounting
		var rel Counts
		for t := range rel {
			if d := s.cur[t] - s.prev[t]; d > 0 {
				rel[t] = d
			}
		}
		s.fellFrom, s.fellGen = s.cur, s.Companion.gen
		s.cur, s.curPlan = s.prev, s.prevPlan
		s.scaledOut = false
		return rel, true
	}
	s.scaledOut = false
	return Counts{}, false
}

// RenderPlacement converts the active plan into a core.Placement: GPUs
// ordered fastest type first, virtual ranks assigned contiguously — a pure
// function of the plan, so every worker derives the same mapping.
func (s *IntraJob) RenderPlacement(numESTs int) core.Placement {
	var p core.Placement
	rank := 0
	for _, t := range s.Companion.sortTypesByCapability() {
		n := s.cur[t]
		a := s.curPlan.ESTsPerGPU[t]
		for g := 0; g < n; g++ {
			var ranks []int
			for k := 0; k < a && rank < numESTs; k++ {
				ranks = append(ranks, rank)
				rank++
			}
			if len(ranks) > 0 {
				p.Devices = append(p.Devices, t)
				p.Assignment = append(p.Assignment, ranks)
			}
		}
	}
	// over-provisioned plans may leave ranks unassigned if maxP < Σ slots —
	// the loop above caps at numESTs; conversely distribute any remainder
	// (defensive: should not happen when the plan satisfies Eq. 1a)
	for rank < numESTs && len(p.Assignment) > 0 {
		p.Assignment[len(p.Assignment)-1] = append(p.Assignment[len(p.Assignment)-1], rank)
		rank++
	}
	return p
}
