package controlplane

import (
	"fmt"
	"strconv"

	"repro/internal/device"
	"repro/internal/obs"
)

// The decision log is an append-only list of fixed-size records; its text is
// rendered on demand (DecisionLog, Report) and eagerly only for the tracer
// mirror. A record holds no pointer and no string, so the collector never
// scans the log and a retired lease is not kept alive by lines that mention it.
//
// A record refers only to things that never change once it is appended: by
// value, or by index into an append-only registry — Plane.order (a job's ID,
// team and spec are fixed at Submit), nodes, envs, shares and spill. A lease is
// named by its sequence number, which renders as its ID.

// kind is an entry's type: the name its line and its CatPlane event carry.
// Kinds up to kRelease are rare enough to keep their message as pre-rendered
// text in Plane.spill; the rest are rendered from the record's operands.
type kind uint8

const (
	kAnomaly kind = iota
	// kUncovered is the anomaly that moves state: a job released GPUs no
	// lease covers, and they went back to the free pool (typ, count).
	kUncovered
	kReserve
	kFinish
	kRelease
	kAdmitElastic
	kAdmitGang
	kPreempt
	kPlace
	kBorrow
	kLease
	kRetire
	kSplit
)

var kindNames = [...]string{
	kAnomaly: "plane.anomaly", kUncovered: "plane.anomaly", kReserve: "plane.reserve",
	kFinish: "plane.finish", kRelease: "plane.release",
	kAdmitElastic: "plane.admit", kAdmitGang: "plane.admit", kPreempt: "plane.preempt",
	kPlace: "plane.place", kBorrow: "plane.borrow", kLease: "plane.lease",
	kRetire: "plane.retire", kSplit: "plane.split",
}

// reason says why a lease was retired.
type reason int32

const (
	preempted reason = iota
	trimmed
	finished
	manual
	fellBack
)

var reasonText = [...]string{
	preempted: "preempted",
	trimmed:   "trimmed: plan assigns no ESTs to these GPUs",
	finished:  "job finished",
	manual:    "manually released",
	fellBack:  "fell back: the measured speedup missed the plan (Role-3)",
}

// record is one decision: 48 bytes, no pointers.
type record struct {
	at      float64 // plane time of the decision
	f0, f1  float64 // kPlace: estimated speedup, total and per GPU; kAdmitGang: seconds waited
	kind    kind
	typ     int8  // device.Type
	sponsor int16 // funding envelope, index into envs
	count   int32 // GPUs the decision moves (the event's A0)
	job     int32 // index into order: the job the decision is about
	lease   int32 // sequence number of the lease the decision is about
	// aux is per kind — spilled kinds: index into spill; kPreempt: the
	// requesting job; kLease: first of its n node shares in shares; kRetire:
	// the reason; kSplit: the retired lease the residual (lease) came from
	aux int32
	n   int32
}

// share is one NodeShare of a minted lease, by node index.
type share struct{ node, count int32 }

// leaseID renders a lease sequence number as the lease's ID, "L%04d" as
// fmt spells it (a sequence number is never negative).
func leaseID(seq int) string {
	var buf [24]byte
	b := append(buf[:0], 'L')
	for d := 1000; d > 1 && seq < d; d /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(seq), 10))
}

// recChunk is the records per chunk of the log. Growing by whole chunks never
// copies what is already there; regrowing one flat slice was 15 % of a replay,
// in multi-megabyte steps that each landed on a single tick.
const recChunk = 4096

// emit appends one decision and, under a tracer, mirrors it as a CatPlane
// event whose detail is the rendered message.
func (p *Plane) emit(r record) {
	r.at = p.nowSec
	if p.nrecs%recChunk == 0 {
		p.recs = append(p.recs, make([]record, 0, recChunk))
	}
	last := &p.recs[len(p.recs)-1]
	*last = append(*last, r)
	p.nrecs++
	if tr := p.cfg.Trace; tr != nil {
		a1 := r.lease
		switch r.kind {
		case kReserve, kFinish, kAdmitElastic, kAdmitGang:
			a1 = r.job
		}
		tr.Event(p.track, obs.CatPlane, kindNames[r.kind], string(p.appendMessage(nil, &r)), int64(r.count), int64(a1))
	}
}

// emitText appends a decision of a spilled kind with its message.
func (p *Plane) emitText(r record, msg string) {
	r.aux = int32(len(p.spill))
	p.spill = append(p.spill, msg)
	p.emit(r)
}

// appendMessage renders a record's message: the one place the text of a
// typed kind exists, shared by the log and the tracer mirror.
func (p *Plane) appendMessage(b []byte, r *record) []byte {
	if r.kind <= kRelease {
		return append(b, p.spill[r.aux]...)
	}
	j, t, id := p.order[r.job], device.Type(r.typ), leaseID(int(r.lease))
	switch r.kind {
	case kAdmitElastic:
		b = fmt.Appendf(b, "job %s (team %s, maxP %d) admitted elastic at zero GPUs; grows by proposals",
			j.spec.ID, j.team, j.spec.MaxP)
	case kAdmitGang:
		b = fmt.Appendf(b, "job %s (team %s) admitted with gang %dx%s under lease %s after %.0fs wait",
			j.spec.ID, j.team, r.count, t, id, r.f0)
	case kPreempt:
		req := p.order[r.aux]
		b = fmt.Appendf(b, "preempt %dx%s of lease %s (job %s, team %s): quota-backed demand by job %s of team %s reclaims sponsor %s's capacity",
			r.count, t, id, j.spec.ID, j.team, req.spec.ID, req.team, p.envs[r.sponsor].cfg.Name)
	case kPlace:
		b = fmt.Appendf(b, "job %s +%dx%s (est. speedup %.3fx, %.4f/GPU): best speedup-per-GPU among fundable proposals; lease %s funded by %s",
			j.spec.ID, r.count, t, r.f0, r.f1, id, p.envs[r.sponsor].cfg.Name)
	case kBorrow:
		b = fmt.Appendf(b, "lease %s: job %s (team %s) borrows %dx%s from team %s's idle envelope",
			id, j.spec.ID, j.team, r.count, t, p.envs[r.sponsor].cfg.Name)
	case kLease:
		b = fmt.Appendf(b, "mint %s: %dx%s -> job %s team %s funded-by %s on [",
			id, r.count, t, j.spec.ID, j.team, p.envs[r.sponsor].cfg.Name)
		for i, s := range p.shares[r.aux : r.aux+r.n] {
			if i > 0 {
				b = append(b, ' ')
			}
			b = fmt.Appendf(b, "%s:%d", p.nodes[s.node].ID, s.count)
		}
		b = append(b, ']')
	case kRetire:
		b = fmt.Appendf(b, "retire %s (%dx%s, job %s): %s", id, r.count, t, j.spec.ID, reasonText[r.aux])
	case kSplit:
		b = fmt.Appendf(b, "split %s -> residual %s (%dx%s, job %s)", leaseID(int(r.aux)), id, r.count, t, j.spec.ID)
	}
	return b
}

// kindCounts tallies the log's records by kind.
func (p *Plane) kindCounts() (n [len(kindNames)]int) {
	for _, chunk := range p.recs {
		for i := range chunk {
			n[chunk[i].kind]++
		}
	}
	return n
}

// DecisionLog renders the append-only decision log, one line per decision.
// Nothing of the rendering is kept: every call formats the whole log anew.
func (p *Plane) DecisionLog() []string {
	if p.nrecs == 0 {
		return nil
	}
	lines := make([]string, 0, p.nrecs)
	var line []byte
	for _, chunk := range p.recs {
		for i := range chunk {
			line = fmt.Appendf(line[:0], "%10.1f %-13s ", chunk[i].at, kindNames[chunk[i].kind])
			line = p.appendMessage(line, &chunk[i])
			lines = append(lines, string(line))
		}
	}
	return lines
}
