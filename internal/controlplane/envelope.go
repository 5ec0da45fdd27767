package controlplane

import (
	"repro/internal/device"
	"repro/internal/sched"
)

// TeamConfig is one team's budget envelope: how much capacity the team is
// entitled to fund at once (Quota). Envelopes are entitlements, not
// partitions — quotas may oversubscribe the inventory, and idle headroom is
// borrowable by other teams when the plane allows it.
type TeamConfig struct {
	Name  string
	Quota sched.Resources
}

// envelope is a team's live funding state. inUse counts every GPU funded by
// this envelope, whether held by the team's own jobs or lent to another
// team's; lent is the subset held elsewhere; borrowed counts GPUs this
// team's jobs hold on someone else's budget.
type envelope struct {
	cfg      TeamConfig
	idx      int // position in Plane.envs
	quota    sched.Counts
	inUse    sched.Counts
	lent     sched.Counts
	borrowed sched.Counts
}

func newEnvelope(cfg TeamConfig) *envelope {
	return &envelope{cfg: cfg, quota: cfg.Quota.Counts()}
}

// headroom is the envelope's remaining funding capacity for one type: quota
// minus funded leases.
//
//easyscale:hotpath
func (e *envelope) headroom(t device.Type) int {
	return max(e.quota[t]-e.inUse[t], 0)
}

// pickSponsor resolves which envelope funds a request of count GPUs of type
// t against a headroom view (one row per envelope, indexed like Plane.envs):
// the requesting team's own when its headroom suffices, otherwise — when
// borrowing is on — the other team with the most idle headroom (ties to the
// lexicographically first name: envs is in name order). Both the
// hypothetical grant-decision pass and the real lease mint call this same
// function, so they cannot disagree.
//
//easyscale:hotpath
func pickSponsor(head []sched.Counts, t device.Type, own, count int, borrow bool) (int, bool) {
	if head[own][t] >= count {
		return own, true
	}
	if !borrow {
		return 0, false
	}
	best, bestH := -1, -1
	for i := range head {
		if h := head[i][t]; i != own && h >= count && h > bestH {
			best, bestH = i, h
		}
	}
	return best, best >= 0
}

// sponsorFor is pickSponsor against the live envelopes.
func (p *Plane) sponsorFor(own int, t device.Type, count int) (int, bool) {
	for i, e := range p.envs {
		p.head[i][t] = e.headroom(t)
	}
	return pickSponsor(p.head, t, own, count, p.cfg.AllowBorrowing)
}
