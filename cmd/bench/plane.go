package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/controlplane"
	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/workload"
)

// plane_replay: the multi-tenant control plane replaying the benchmark's own
// tenant trace over a 3,072-GPU fleet. One op is one 10-s tick: the Submit
// calls of the jobs that arrived, then Tick. Every block is a fresh plane
// replaying the whole trace, so all blocks do identical work.

const planeTickSec = 10.0

// minBorrowJobs is the trace length from which the oracle insists on seeing
// borrows and reclaims: shorter traces never fill a team's quota.
const minBorrowJobs = 1000

var planeInventory = sched.Resources{device.V100: 1536, device.P100: 768, device.T4: 768}

// newPlane builds the fleet: four teams at quarter quotas, borrowing on,
// best-fit packing.
func newPlane() *controlplane.Plane {
	teams := make([]controlplane.TeamConfig, len(planeTeams))
	for i, name := range planeTeams {
		quota := sched.Resources{}
		for t, n := range planeInventory {
			quota[t] = n / len(planeTeams)
		}
		teams[i] = controlplane.TeamConfig{Name: name, Quota: quota}
	}
	return controlplane.New(controlplane.Config{
		Inventory:      planeInventory.Clone(),
		Teams:          teams,
		TickSec:        planeTickSec,
		AllowBorrowing: true,
		Strategy:       controlplane.BestFit{},
	})
}

type planeRun struct {
	trace []workload.JobSpec
	ticks int
	lat   []float64

	// what the oracle compares across blocks, and the last block's books.
	// No plane outlives its block: one kept for the oracle would sit in the
	// heap beside the next block's and double the resident set.
	decisions []int
	logHashes []uint64
	report    controlplane.Report
	free      sched.Resources
}

// replay drives one plane through the first ticks ticks of trace, timing each
// tick into lat when it is non-nil.
func replay(p *controlplane.Plane, trace []workload.JobSpec, ticks int, lat []float64, ln *lane) {
	next := 0
	for tick := 0; tick < ticks; tick++ {
		simSec := float64(tick) * planeTickSec
		t0 := now()
		op := ln.open("plane_replay.op", -1, tick)
		for next < len(trace) && trace[next].ArrivalSec <= simSec {
			id := ln.open("controlplane.Submit", op, tick)
			p.Submit(trace[next])
			ln.close(id)
			next++
		}
		id := ln.open("controlplane.Tick", op, tick)
		p.Tick(simSec)
		ln.close(id)
		ln.close(op)
		if lat != nil {
			lat[tick] = ms(since(t0))
		}
	}
}

func setupPlane(seed uint64, sz sizing) (instance, error) {
	r := &planeRun{trace: tenantTrace(sz.jobs, seed), ticks: sz.blockOps, lat: make([]float64, sz.blockOps)}
	// warm-up: a short replay, which also fills the plane's per-model
	// capability cache
	replay(newPlane(), r.trace[:min(sz.warmOps, len(r.trace))], sz.warmOps*4/5, nil, nil)
	return r, nil
}

func (r *planeRun) block(rec *recorder) blockResult {
	p := newPlane()
	replay(p, r.trace, r.ticks, r.lat, rec.lane("plane"))
	r.decisions = append(r.decisions, p.Decisions())
	return blockResult{lat: r.lat, ops: r.ticks, work: float64(p.Decisions()), after: func() {
		r.logHashes = append(r.logHashes, hashLog(p.DecisionLog()))
		r.report, r.free = p.Report(), p.Free()
		r.report.Log = nil // tens of megabytes the oracle has already hashed
	}}
}

// hashLog folds the decision log into one number.
func hashLog(log []string) uint64 {
	h := fnv.New64a()
	for _, line := range log {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func (r *planeRun) check() error {
	for i := range r.decisions {
		if r.decisions[i] != r.decisions[0] || r.logHashes[i] != r.logHashes[0] {
			return fmt.Errorf("plane_replay: block %d took %d decisions (log %016x), block 0 took %d (log %016x)",
				i, r.decisions[i], r.logHashes[i], r.decisions[0], r.logHashes[0])
		}
	}
	rep, free := r.report, r.free
	for t, inv := range planeInventory {
		leased := 0
		for _, team := range rep.Teams {
			leased += team.InUse[t]
		}
		if leased+free[t] != inv {
			return fmt.Errorf("plane_replay: %s: %d leased + %d free != inventory %d", t, leased, free[t], inv)
		}
	}
	if len(r.trace) >= minBorrowJobs && (rep.Borrows == 0 || rep.Reclaims == 0) {
		return fmt.Errorf("plane_replay: %d borrows, %d reclaims: the trace no longer exercises borrowing", rep.Borrows, rep.Reclaims)
	}
	return nil
}

func (r *planeRun) close() {}
