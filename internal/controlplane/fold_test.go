package controlplane

import (
	"fmt"
	"reflect"

	"repro/internal/device"
	"repro/internal/sched"
)

// folded is the plane's state as its decision records tell it.
type folded struct {
	leases                []*Lease       // active, in the order they were minted or split off
	inUse, lent, borrowed []sched.Counts // per envelope, indexed like Plane.envs
	used                  []int          // per node, indexed like Plane.nodes
	free                  sched.Counts
	// admitted and finished count admission and finish records; borrows
	// counts the minted leases a foreign envelope funds
	minted, borrows, reclaims, admitted, finished int
}

// fold replays the decision log from an empty plane. A record names jobs,
// envelopes, nodes and shares by index into the plane's append-only
// registries, so fold reads those and nothing that a record changes.
func fold(p *Plane) (folded, error) {
	f := folded{
		inUse: make([]sched.Counts, len(p.envs)), lent: make([]sched.Counts, len(p.envs)),
		borrowed: make([]sched.Counts, len(p.envs)), used: make([]int, len(p.nodes)),
	}
	for t := range f.free {
		f.free[t] = p.cfg.Inventory[device.Type(t)]
	}
	leases := map[int32]*Lease{} // every lease ever minted or split off, by sequence number
	active := func(seq int32) (int, error) {
		for i, l := range f.leases {
			if int32(l.seq) == seq {
				return i, nil
			}
		}
		return 0, fmt.Errorf("record names lease %s, which is not active", leaseID(int(seq)))
	}
	for _, chunk := range p.recs {
		for i := range chunk {
			r := &chunk[i]
			switch r.kind {
			case kLease:
				j := p.order[r.job]
				l := &Lease{
					ID: leaseID(int(r.lease)), JobID: j.spec.ID, Team: j.team, Sponsor: p.envs[r.sponsor].cfg.Name,
					Type: device.Type(r.typ), Count: int(r.count), StartSec: r.at, seq: int(r.lease),
				}
				for _, s := range p.shares[r.aux : r.aux+r.n] {
					n := p.nodes[s.node]
					l.Nodes = append(l.Nodes, NodeShare{NodeID: n.ID, Count: int(s.count), node: n})
				}
				f.minted++
				if l.Borrowed() {
					f.borrows++
				}
				leases[r.lease] = l
				f.leases = append(f.leases, l)
			case kRetire:
				k, err := active(r.lease)
				if err != nil {
					return f, err
				}
				if l := f.leases[k]; int(r.count) > l.Count || device.Type(r.typ) != l.Type {
					return f, fmt.Errorf("retire of %dx%s from lease %s of %dx%s", r.count, device.Type(r.typ), l.ID, l.Count, l.Type)
				}
				f.leases = append(f.leases[:k], f.leases[k+1:]...)
			case kSplit:
				// the residual keeps the leading r.count GPUs of the retired
				// lease, in share order, and everything else it had
				old := leases[r.aux]
				if old == nil || int(r.count) >= old.Count {
					return f, fmt.Errorf("split of %dx%s off lease %s", r.count, device.Type(r.typ), leaseID(int(r.aux)))
				}
				res := *old
				res.ID, res.Count, res.seq, res.Nodes = leaseID(int(r.lease)), int(r.count), int(r.lease), nil
				for keep, k := int(r.count), 0; keep > 0; k++ {
					s := old.Nodes[k]
					s.Count = min(s.Count, keep)
					keep -= s.Count
					res.Nodes = append(res.Nodes, s)
				}
				leases[r.lease] = &res
				f.leases = append(f.leases, &res)
			case kUncovered:
				f.free[r.typ] += int(r.count)
			case kAdmitElastic, kAdmitGang:
				f.admitted++
			case kFinish:
				f.finished++
			case kPreempt:
				f.reclaims++
			}
		}
	}
	for _, l := range f.leases {
		f.free[l.Type] -= l.Count
		sp, team := p.teams[l.Sponsor].idx, p.teams[l.Team].idx
		f.inUse[sp][l.Type] += l.Count
		if l.Borrowed() {
			f.lent[sp][l.Type] += l.Count
			f.borrowed[team][l.Type] += l.Count
		}
		for _, s := range l.Nodes {
			f.used[s.node.idx] += s.Count
		}
	}
	return f, nil
}

// foldLaw checks that the fold of the decision log equals the live state:
// the active leases with their sponsors and node shares, every envelope's
// books, node occupancy, the free pool, and the counters Report gives.
func foldLaw(p *Plane) error {
	f, err := fold(p)
	if err != nil {
		return fmt.Errorf("fold: %v", err)
	}
	if len(f.leases) != len(p.activeLeases) {
		return fmt.Errorf("fold has %d active leases, the plane %d", len(f.leases), len(p.activeLeases))
	}
	for i, l := range p.activeLeases {
		if !reflect.DeepEqual(*f.leases[i], *l) {
			return fmt.Errorf("active lease %d: fold says %+v, plane %+v", i, *f.leases[i], *l)
		}
	}
	for i, e := range p.envs {
		if e.inUse != f.inUse[i] || e.lent != f.lent[i] || e.borrowed != f.borrowed[i] {
			return fmt.Errorf("team %s: envelope says inUse %v lent %v borrowed %v, the fold %v %v %v",
				e.cfg.Name, e.inUse, e.lent, e.borrowed, f.inUse[i], f.lent[i], f.borrowed[i])
		}
	}
	for i, n := range p.nodes {
		if n.Used != f.used[i] {
			return fmt.Errorf("node %s: %d used, the fold says %d", n.ID, n.Used, f.used[i])
		}
	}
	for _, t := range device.AllTypes() {
		if p.free[t] != f.free[t] {
			return fmt.Errorf("%s: %d free, the fold says %d", t, p.free[t], f.free[t])
		}
	}
	// Report's counters, without rendering the log it carries
	kinds := p.kindCounts()
	if got, want := [...]int{kinds[kLease], kinds[kBorrow], kinds[kPreempt], len(p.order) - len(p.waiting), p.FinishedCount()},
		[...]int{f.minted, f.borrows, f.reclaims, f.admitted, f.finished}; got != want {
		return fmt.Errorf("minted, borrows, reclaims, admitted, finished: plane %v, fold %v", got, want)
	}
	return nil
}
