// Package cluster implements the cluster simulator behind the paper's trace
// experiment (§5.2: YARN-CS vs EasyScale-homo vs EasyScale-heter on 64 GPUs)
// and the production co-location experiment (§5.3: elastic training soaking
// the idle GPUs of a 3,000+ GPU online serving cluster), plus the §2.1
// motivation statistics.
//
// Both run on one fixed-tick loop (Simulate) over two policies: the control
// plane, for the two EasyScale modes and co-location, and gangFIFO, a strict
// FIFO gang scheduler, for YARN-CS. Both report per-job lifecycle stats in
// the control plane's JobStat shape, from which the loop assembles one Result.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/controlplane"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Mode selects the cluster scheduling policy under simulation.
type Mode int

const (
	// YARNCS is Apache YARN's capacity scheduler as used in Philly: strict
	// FIFO with gang scheduling on a single GPU type per job.
	YARNCS Mode = iota
	// EasyScaleHomo is EasyScale restricted to homogeneous GPUs per job.
	EasyScaleHomo
	// EasyScaleHeter is EasyScale with heterogeneous plans for D2-capable
	// jobs (vendor-kernel jobs remain homogeneous, per the paper's policy).
	EasyScaleHeter
	// Colocation is §5.3's production fleet on the control plane: quota-backed
	// jobs (MinGPUs > 0) serve for a team whose quota is the inventory, and
	// fully elastic ones train for a team with none, borrowing the serving
	// team's idle GPUs until a serving gang reclaims them.
	Colocation
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case YARNCS:
		return "YARN-CS"
	case EasyScaleHomo:
		return "EasyScale-homo"
	case EasyScaleHeter:
		return "EasyScale-heter"
	case Colocation:
		return "co-location"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config configures a trace simulation.
type Config struct {
	Mode      Mode
	Inventory sched.Resources
}

// The simulation steps by the control plane's default tick, 10 s (the
// EasyScale modes run on the plane's defaults: 3 proposals per job per
// round, a 5 s restart pause), and gives up after 30 simulated days.
const (
	tickSec   = 10
	maxSimSec = 30 * 24 * 3600
)

// AllocSample is one timeline point of allocated GPUs. Under Colocation,
// Serving is the part the serving gangs hold (the rest is training's), and
// Wanted what the training jobs not yet finished would hold at their MaxP.
type AllocSample struct {
	Sec       float64
	Allocated int
	Serving   int
	Wanted    int
}

// Result summarizes a simulation. AvgJCT and AvgQueue average over the
// finished jobs; Unstarted counts the jobs that never ran on a GPU, whether
// queued or not yet arrived when the simulation stopped. Makespan runs from
// the first arrival to the last finish, or to the tick the simulation
// stopped on if a job never finished. Under Colocation, Waited counts the
// serving gangs Submit did not lease at once, and Preemptions the borrowed
// leases the plane cut on reclaim (its preempt records).
type Result struct {
	Mode        Mode
	AvgJCT      float64
	AvgQueue    float64
	Makespan    float64
	JCTs        map[string]float64
	Timeline    []AllocSample
	Finished    int
	Unstarted   int
	Waited      int
	Preemptions int
}

// policy is what the simulation loop ticks and reads (see the package doc).
type policy interface {
	Tick(nowSec float64)
	Allocated() int
	FinishedCount() int
	JobStats() []controlplane.JobStat
}

// Simulate runs the trace under the configured policy and returns metrics;
// an empty trace yields the zero Result of that mode. One loop serves every
// mode: each tick it submits the jobs that have arrived, ticks the policy and
// samples the allocated GPUs, until every job has finished or 30 simulated
// days have passed. The result is assembled from the policy's per-job stats
// in submission order.
func Simulate(cfg Config, jobs []workload.JobSpec) Result {
	if len(jobs) == 0 {
		return Result{Mode: cfg.Mode}
	}
	res := Result{Mode: cfg.Mode, JCTs: map[string]float64{}}
	var pol policy
	var submit func(workload.JobSpec)
	var plane *controlplane.Plane
	var coloc []workload.JobSpec // Colocation: the jobs submitted and not finished
	switch cfg.Mode {
	case YARNCS:
		g := &gangFIFO{inv: cfg.Inventory.Counts(), free: cfg.Inventory.Counts()}
		pol, submit = g, g.Submit
	case Colocation:
		plane = controlplane.New(controlplane.Config{Inventory: cfg.Inventory, AllowBorrowing: true,
			Teams: []controlplane.TeamConfig{{Name: "serving", Quota: cfg.Inventory.Clone()}, {Name: "training"}}})
		pol, submit = plane, func(spec workload.JobSpec) {
			spec.Team = "training"
			if spec.MinGPUs > 0 {
				spec.Team = "serving"
			}
			coloc = append(coloc, spec)
			if l, _ := plane.Submit(spec); l == nil {
				res.Waited++
			}
		}
	default:
		plane = controlplane.New(controlplane.Config{Inventory: cfg.Inventory, HomogeneousOnly: cfg.Mode == EasyScaleHomo})
		pol, submit = plane, func(spec workload.JobSpec) {
			spec.Team, spec.MinGPUs = "", 0 // single-tenant, fully elastic
			plane.Submit(spec)
		}
	}
	pending := append([]workload.JobSpec(nil), jobs...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].ArrivalSec < pending[j].ArrivalSec })
	now, next := 0.0, 0
	for ; now < maxSimSec; now += tickSec {
		for next < len(pending) && pending[next].ArrivalSec <= now {
			submit(pending[next])
			next++
		}
		pol.Tick(now)
		sample := AllocSample{Sec: now, Allocated: pol.Allocated()}
		coloc = slices.DeleteFunc(coloc, func(j workload.JobSpec) bool { _, done := plane.Progress(j.ID); return done })
		for _, j := range coloc {
			if j.MinGPUs > 0 {
				sample.Serving += plane.Held(j.ID).Total()
			} else {
				sample.Wanted += j.MaxP
			}
		}
		res.Timeline = append(res.Timeline, sample)
		if pol.FinishedCount() == len(jobs) {
			break
		}
	}
	if cfg.Mode == Colocation {
		res.Preemptions = plane.Report().Reclaims
	}
	res.Unstarted = len(pending) - next
	end := 0.0 // the last finish, if every job finished
	for _, st := range pol.JobStats() {
		switch {
		case st.Done:
			end = max(end, st.FinishSec)
			res.JCTs[st.ID] = st.FinishSec - st.ArrivalSec
			res.AvgJCT += res.JCTs[st.ID]
			res.AvgQueue += st.StartSec - st.ArrivalSec
			res.Finished++
		case !st.Started:
			res.Unstarted++
		}
	}
	if res.Finished > 0 {
		res.AvgJCT /= float64(res.Finished)
		res.AvgQueue /= float64(res.Finished)
	}
	if res.Finished < len(jobs) {
		end = now // the tick the simulation stopped on
	}
	res.Makespan = end - pending[0].ArrivalSec
	return res
}

// gangFIFO is YARN-CS as a policy: strict FIFO gang scheduling. Only the
// queue head may start, and it needs MaxP GPUs of its requested type at once,
// which it holds until it finishes; so jobs start in submission order.
type gangFIFO struct {
	inv, free sched.Counts
	specs     []workload.JobSpec     // submission order
	stats     []controlplane.JobStat // per spec
	remaining []float64              // per spec: global steps left
	started   int                    // specs[started:] are queued
	running   []int                  // indices of the running gangs, in start order
}

// Submit queues spec behind every job submitted before it.
func (g *gangFIFO) Submit(spec workload.JobSpec) {
	g.specs = append(g.specs, spec)
	g.stats = append(g.stats, controlplane.JobStat{ID: spec.ID, ArrivalSec: spec.ArrivalSec})
	g.remaining = append(g.remaining, spec.WorkSteps)
}

// Tick starts the queue head while its gang fits, then advances every
// running gang by one tick, releasing the GPUs of those that finish.
func (g *gangFIFO) Tick(nowSec float64) {
	for ; g.started < len(g.specs); g.started++ {
		spec, st := &g.specs[g.started], &g.stats[g.started]
		if g.free[spec.RequestedType] < spec.MaxP {
			break
		}
		g.free[spec.RequestedType] -= spec.MaxP
		st.Started, st.StartSec = true, nowSec
		g.running = append(g.running, g.started)
	}
	still := g.running[:0]
	for _, i := range g.running {
		spec, t := &g.specs[i], g.specs[i].RequestedType // the gang is MaxP GPUs of this one type
		g.remaining[i] -= float64(spec.MaxP) * controlplane.CapabilityFor(spec.Model)[t] * tickSec
		if g.remaining[i] > 0 {
			still = append(still, i)
			continue
		}
		g.free[t] += spec.MaxP
		g.stats[i].Done, g.stats[i].FinishSec = true, nowSec+tickSec
	}
	g.running = still
}

// Allocated returns the GPUs the running gangs hold.
func (g *gangFIFO) Allocated() int { return g.inv.Total() - g.free.Total() }

// FinishedCount returns how many jobs have finished.
func (g *gangFIFO) FinishedCount() int { return g.started - len(g.running) }

// JobStats lists every submitted job in submission order.
func (g *gangFIFO) JobStats() []controlplane.JobStat { return g.stats }

// servingUtil and trainingUtil are device-model constants, not plane
// decisions: the average share of its SMs a GPU keeps busy serving bursty
// inference, and training.
const servingUtil, trainingUtil = 0.50, 0.92

// Means averages a Colocation timeline on a fleet of total GPUs: the
// allocation ratio, the SM utilisation under the device model, and the GPUs
// elastic training holds.
func Means(tl []AllocSample, total int) (alloc, util, elastic float64) {
	for _, s := range tl {
		e := float64(s.Allocated - s.Serving)
		alloc += float64(s.Allocated)
		util += servingUtil*float64(s.Serving) + trainingUtil*e
		elastic += e
	}
	n := float64(len(tl) * total)
	return alloc / n, util / n, elastic / float64(len(tl))
}

// Refills reads a Colocation timeline on a fleet of total GPUs: for every
// sample at which the serving gangs released GPUs while training wanted more
// than it held, the seconds until training had borrowed them back, that is,
// until no GPU stood idle or training held all it wanted. A refill still
// open at the last sample counts up to it.
func Refills(tl []AllocSample, total int) (out []float64) {
	short := func(s AllocSample) bool { return s.Allocated < total && s.Allocated-s.Serving < s.Wanted }
	for i := 1; i < len(tl); i++ {
		if tl[i].Serving >= tl[i-1].Serving || !short(tl[i]) {
			continue
		}
		k := i + 1
		for k < len(tl) && short(tl[k]) {
			k++
		}
		out = append(out, tl[min(k, len(tl)-1)].Sec-tl[i].Sec)
	}
	return out
}
