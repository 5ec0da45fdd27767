package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Policy decides which proposals to accept given the free pool. The default
// is the paper's greedy heuristic; the interface is the extension point §3.4
// reserves for experimenting with other policies.
type Policy interface {
	// Decide returns the accepted subset of proposals, in grant order.
	Decide(free Resources, proposals []Proposal) []Proposal
}

// GreedyPolicy accepts proposals in order of speedup-per-GPU, breaking ties
// toward more GPUs, subject to the free pool; at most one proposal per job
// per round.
type GreedyPolicy struct{}

// CompareProposals is the greedy grant order: speedup-per-GPU descending,
// then more GPUs, then job ID. Policies sort stably by it, so proposals it
// ties keep the order they were submitted in.
func CompareProposals(a, b Proposal) int {
	if a.SpeedupPerGPU != b.SpeedupPerGPU {
		return cmp.Compare(b.SpeedupPerGPU, a.SpeedupPerGPU)
	}
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return cmp.Compare(a.JobID, b.JobID)
}

// Decide implements Policy.
func (GreedyPolicy) Decide(free Resources, proposals []Proposal) []Proposal {
	sorted := append([]Proposal(nil), proposals...)
	slices.SortStableFunc(sorted, CompareProposals)
	pool := free.Counts()
	granted := map[string]bool{}
	var out []Proposal
	for _, pr := range sorted {
		if granted[pr.JobID] {
			continue
		}
		if pool[pr.Type] < pr.Count {
			continue
		}
		pool[pr.Type] -= pr.Count
		granted[pr.JobID] = true
		out = append(out, pr)
	}
	return out
}

// RoundPass is the inter-job scheduler's round as a pure pass: evaluate the
// proposals against the free pool, debit the pool in place for the accepted
// ones, and return them in grant order. The pool is a bare Resources the
// caller owns; the control plane runs every round through it, live jobs
// included, so a single-tenant plane is bitwise-identical to proposals
// granted greedily against one pool by construction.
func RoundPass(policy Policy, free Resources, proposals []Proposal, trace *obs.Tracer) []Proposal {
	accepted := policy.Decide(free, proposals)
	for _, pr := range accepted {
		free[pr.Type] -= pr.Count
		logDecision(trace, "sched.accept", int64(pr.Count), 0, func() string { return proposalDetail(pr) })
	}
	logDecision(trace, "sched.round", int64(len(accepted)), int64(len(proposals)), func() string {
		return fmt.Sprintf("accepted %d of %d proposals; free=%s", len(accepted), len(proposals), free.Counts())
	})
	return accepted
}
