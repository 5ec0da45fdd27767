package controlplane

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/device"
	"repro/internal/sched"
)

// Lease is an immutable grant of GPUs to one job, funded by one envelope.
// A lease never changes after minting: shrinking a job retires leases (or
// splits one: retire + mint the residual under a fresh ID), so the decision
// log is an append-only account of who held what, funded by whom, and why it
// ended.
type Lease struct {
	ID    string
	JobID string
	// Team holds the GPUs; Sponsor funds them. They differ exactly when the
	// lease is borrowed from another team's idle envelope.
	Team    string
	Sponsor string
	Type    device.Type
	Count   int
	Nodes   []NodeShare
	// StartSec is when the underlying allocation began (a split residual
	// keeps the original start).
	StartSec float64
	seq      int
}

// Borrowed reports whether the lease runs on another team's budget.
func (l *Lease) Borrowed() bool { return l.Sponsor != l.Team }

// Reservation is the answer a job gets when it cannot be admitted: how much
// capacity is missing, when the plane expects to admit it, and what would
// unblock it sooner.
type Reservation struct {
	JobID string
	Team  string
	Type  device.Type
	Need  int
	// Deficit is how many GPUs of Type are still missing after counting the
	// free pool the job may fund.
	Deficit int
	// ETASec estimates when the deficit will be covered by running jobs
	// finishing (-1 when no running lease covers it).
	ETASec float64
	// Remedies are concrete unblocking actions, most effective first.
	Remedies []string
	SinceSec float64
}

// mintLease allocates nodes, charges the sponsoring envelope (an index into
// envs), and records the lease. The caller has already debited the physical
// free pool.
func (p *Plane) mintLease(j *job, t device.Type, count, sponsor int) *Lease {
	sp := p.envs[sponsor]
	l := p.addLease(j, &Lease{
		Team:     j.team,
		Sponsor:  sp.cfg.Name,
		Type:     t,
		Count:    count,
		Nodes:    p.place(t, count),
		StartSec: p.nowSec,
	})
	sp.inUse[t] += count
	r := record{typ: int8(t), sponsor: int16(sponsor), count: int32(count), job: int32(j.submitSeq), lease: int32(l.seq)}
	if l.Borrowed() {
		sp.lent[t] += count
		j.env.borrowed[t] += count
		r.kind = kBorrow
		p.emit(r)
	}
	r.kind, r.aux, r.n = kLease, int32(len(p.shares)), int32(len(l.Nodes))
	for _, s := range l.Nodes {
		p.shares = append(p.shares, share{int32(s.node.idx), int32(s.Count)})
	}
	p.emit(r)
	return l
}

// addLease gives l the next sequence number and ID and enters it in the
// active set and its job's lease list.
func (p *Plane) addLease(j *job, l *Lease) *Lease {
	p.leaseSeq++
	l.ID, l.JobID, l.seq = leaseID(p.leaseSeq), j.spec.ID, p.leaseSeq
	p.activeLeases = append(p.activeLeases, l)
	j.leases = append(j.leases, l)
	return l
}

// retireFromLease returns n ≤ l.Count GPUs from lease l: envelope credit,
// node unplacement, physical free-pool credit. When n < l.Count the lease is
// split — fully retired, with the residual re-minted under a fresh ID. The
// retired lease itself is never written: the caller that got it from Submit,
// and every log line that described it, still see what was minted.
func (p *Plane) retireFromLease(l *Lease, n int, why reason) {
	t, j := l.Type, p.jobs[l.JobID]
	// the leading l.Count-n GPUs, in share order, stay placed (they are the
	// residual's when this is a split); the rest go back to their nodes
	var rest []NodeShare
	keep := l.Count - n
	for _, s := range l.Nodes {
		k := min(s.Count, keep)
		keep -= k
		s.node.Used -= s.Count - k
		if s.Count = k; k > 0 {
			rest = append(rest, s)
		}
	}
	sp := p.teams[l.Sponsor]
	sp.inUse[t] -= n
	if l.Borrowed() {
		sp.lent[t] -= n
		j.env.borrowed[t] -= n
	}
	p.free[t] += n
	p.activeLeases, j.leases = without(p.activeLeases, l), without(j.leases, l)
	p.emit(record{kind: kRetire, typ: int8(t), count: int32(n), job: int32(j.submitSeq), lease: int32(l.seq), aux: int32(why)})
	if n < l.Count {
		res := p.addLease(j, &Lease{
			Team: l.Team, Sponsor: l.Sponsor, Type: t, Count: l.Count - n,
			Nodes: rest, StartSec: l.StartSec,
		})
		p.emit(record{kind: kSplit, typ: int8(t), count: int32(res.Count), job: int32(j.submitSeq), lease: int32(res.seq), aux: int32(l.seq)})
	}
}

// without returns list minus l. Most retirements take a lease minted
// moments ago, so the scan starts at the newest end.
func without(list []*Lease, l *Lease) []*Lease {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] == l {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// releaseFromJob settles a resource release reported by a job's intra-job
// scheduler (trim, fallback, preemption, completion) against the job's
// leases, retiring newest-first; prefer, when non-nil and matching, is
// retired ahead of the LIFO order (the manual Release path).
func (p *Plane) releaseFromJob(j *job, released sched.Counts, why reason, prefer *Lease) {
	for _, t := range device.AllTypes() {
		m := released[t]
		for m > 0 {
			var l *Lease
			if prefer != nil && prefer.Type == t && slices.Contains(j.leases, prefer) {
				l = prefer
			} else {
				for i := len(j.leases) - 1; i >= 0; i-- {
					if j.leases[i].Type == t {
						l = j.leases[i]
						break
					}
				}
			}
			if l == nil {
				// released GPUs with no covering lease: accounting anomaly —
				// return them to the pool and say so rather than leak
				p.free[t] += m
				p.emitText(record{kind: kUncovered, typ: int8(t), count: int32(m)}, fmt.Sprintf(
					"job %s released %dx%s not covered by any lease (%s)", j.spec.ID, m, t, reasonText[why]))
				break
			}
			n := min(l.Count, m)
			p.retireFromLease(l, n, why)
			m -= n
		}
	}
}

// place picks nodes for count GPUs of type t per the configured strategy and
// marks them used: one scan of the type's nodes per share, taking the
// strategy's most preferred node that still has room. A picked node is either
// filled or ends the loop, so this is sort-then-fill without the sort. The
// caller guarantees count ≤ the type's free capacity.
func (p *Plane) place(t device.Type, count int) []NodeShare {
	var shares []NodeShare
	for left := count; left > 0; {
		var best *Node
		for _, n := range p.typeNodes[t] {
			if n.Free() > 0 && (best == nil || p.cfg.Strategy.Less(n, best)) {
				best = n
			}
		}
		if best == nil {
			p.emitText(record{kind: kAnomaly, count: int32(left)}, fmt.Sprintf("placement short %d GPUs of %s", left, t))
			break
		}
		take := min(best.Free(), left)
		best.Used += take
		shares = append(shares, NodeShare{NodeID: best.ID, Count: take, node: best})
		left -= take
	}
	return shares
}

// leaseETAs lists the active leases of one type with each holder's estimated
// completion, soonest first — the "wait for lease L of job J" remedy source.
type leaseETA struct {
	lease *Lease
	eta   float64
}

func (p *Plane) leaseETAs(t device.Type) []leaseETA {
	var out []leaseETA
	for _, l := range p.activeLeases {
		if l.Type != t {
			continue
		}
		h := p.jobs[l.JobID]
		thr := h.intra.CurrentPlan().Throughput
		if thr <= 0 {
			continue
		}
		out = append(out, leaseETA{lease: l, eta: p.nowSec + h.remaining/thr})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].eta != out[j].eta {
			return out[i].eta < out[j].eta
		}
		return out[i].lease.seq < out[j].lease.seq
	})
	return out
}
