package sched

import (
	"fmt"

	"repro/internal/obs"
)

// The scheduler decision log: every placement-affecting choice — plan
// application, proposal grant, slowdown fallback, trim, scheduling round —
// is recorded as a structured trace event answering "why this placement".
// Scheduling decisions are pure functions of their inputs; the log only
// observes them, so traced and untraced passes decide identically.

// logDecision appends one decision-log entry; no-op when tr is nil. The
// detail is a function because Go evaluates arguments before the call: a
// string argument would be formatted first and discarded by the nil check
// after, on every decision of an untraced plane.
func logDecision(tr *obs.Tracer, name string, a0, a1 int64, detail func() string) {
	if tr == nil {
		return
	}
	tr.Event(tr.Track("sched"), obs.CatSched, name, detail(), a0, a1)
}

// proposalDetail renders a proposal for the decision log.
func proposalDetail(pr Proposal) string {
	return fmt.Sprintf("job=%s add=%dx%s speedup=%.3f per-gpu=%.4f",
		pr.JobID, pr.Count, pr.Type, pr.SpeedupTotal, pr.SpeedupPerGPU)
}
