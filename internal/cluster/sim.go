// Package cluster implements the discrete-event cluster simulator behind the
// paper's trace experiment (§5.2: YARN-CS vs EasyScale-homo vs
// EasyScale-heter on 64 GPUs) and the production co-location experiment
// (§5.3: elastic training soaking the idle GPUs of a 3,000+ GPU online
// serving cluster), plus the §2.1 motivation statistics.
package cluster

import (
	"fmt"
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

// AllocSample is one timeline point of allocated GPUs.
type AllocSample struct {
	Sec       float64
	Allocated int
}

// Result summarizes a simulation.
type Result struct {
	Mode      Mode
	AvgJCT    float64
	AvgQueue  float64
	Makespan  float64
	JCTs      map[string]float64
	Timeline  []AllocSample
	Finished  int
	Unstarted int
}

// simJob is the YARN-CS path's per-job state (the EasyScale path keeps its
// state inside the control plane).
type simJob struct {
	spec      workload.JobSpec
	remaining float64
	startSec  float64
}

// Simulate runs the trace under the configured policy and returns metrics;
// an empty trace yields the zero Result of that mode.
func Simulate(cfg Config, jobs []workload.JobSpec) Result {
	if len(jobs) == 0 {
		return Result{Mode: cfg.Mode}
	}
	switch cfg.Mode {
	case YARNCS:
		return simulateYARN(cfg, jobs)
	default:
		return simulateEasyScale(cfg, jobs)
	}
}

// simulateYARN: strict FIFO gang scheduling. Only the queue head may start,
// and it needs MaxP GPUs of a single type simultaneously.
func simulateYARN(cfg Config, jobs []workload.JobSpec) Result {
	free := cfg.Inventory.Clone()
	var queue []*simJob
	pending := make([]*simJob, len(jobs))
	for i := range jobs {
		pending[i] = &simJob{spec: jobs[i], remaining: jobs[i].WorkSteps}
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].spec.ArrivalSec < pending[j].spec.ArrivalSec })
	var running []*simJob
	res := Result{Mode: cfg.Mode, JCTs: map[string]float64{}}
	now := 0.0
	nextArrival := 0
	for ; now < maxSimSec; now += tickSec {
		for nextArrival < len(pending) && pending[nextArrival].spec.ArrivalSec <= now {
			queue = append(queue, pending[nextArrival])
			nextArrival++
		}
		// FIFO head-of-line: start the head while its requested gang fits
		for len(queue) > 0 {
			j := queue[0]
			t := j.spec.RequestedType
			if free[t] < j.spec.MaxP {
				break
			}
			free[t] -= j.spec.MaxP
			j.startSec = now
			running = append(running, j)
			queue = queue[1:]
		}
		// progress
		var still []*simJob
		for _, j := range running {
			t := j.spec.RequestedType // the gang is MaxP GPUs of this one type
			rate := float64(j.spec.MaxP) * controlplane.CapabilityFor(j.spec.Model)[t]
			j.remaining -= rate * tickSec
			if j.remaining <= 0 {
				free[t] += j.spec.MaxP
				res.JCTs[j.spec.ID] = now + tickSec - j.spec.ArrivalSec
				res.AvgQueue += j.startSec - j.spec.ArrivalSec
				res.Finished++
			} else {
				still = append(still, j)
			}
		}
		running = still
		res.Timeline = append(res.Timeline, AllocSample{Sec: now, Allocated: cfg.Inventory.Total() - free.Total()})
		if res.Finished == len(jobs) {
			break
		}
	}
	finalize(&res, jobs, now)
	res.Unstarted = len(queue) + (len(pending) - nextArrival)
	return res
}

// simulateEasyScale: elastic jobs (min 0 GPUs) admitted through the
// multi-tenant control plane in single-tenant mode, which drives the same
// intra-job/inter-job passes the pre-plane simulator called directly (the
// plane's shim-equivalence test pins that the plans are identical).
func simulateEasyScale(cfg Config, jobs []workload.JobSpec) Result {
	plane := controlplane.New(controlplane.Config{Inventory: cfg.Inventory, HomogeneousOnly: cfg.Mode == EasyScaleHomo})
	pending := append([]workload.JobSpec(nil), jobs...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].ArrivalSec < pending[j].ArrivalSec })
	res := Result{Mode: cfg.Mode, JCTs: map[string]float64{}}
	now := 0.0
	nextArrival := 0
	for ; now < maxSimSec; now += tickSec {
		for nextArrival < len(pending) && pending[nextArrival].ArrivalSec <= now {
			spec := pending[nextArrival]
			spec.Team, spec.MinGPUs = "", 0 // single-tenant, fully elastic
			plane.Submit(spec)
			nextArrival++
		}
		plane.Tick(now)
		res.Timeline = append(res.Timeline, AllocSample{Sec: now, Allocated: plane.Allocated()})
		if plane.FinishedCount() == len(jobs) && nextArrival == len(pending) {
			break
		}
	}
	for _, st := range plane.JobStats() {
		if st.Done {
			res.JCTs[st.ID] = st.FinishSec - st.ArrivalSec
			res.AvgQueue += st.StartSec - st.ArrivalSec
			res.Finished++
		} else {
			res.Unstarted++
		}
	}
	res.Unstarted += len(pending) - nextArrival
	finalize(&res, jobs, now)
	return res
}

func finalize(res *Result, jobs []workload.JobSpec, now float64) {
	if res.Finished > 0 {
		sum := 0.0
		for _, v := range res.JCTs {
			sum += v
		}
		res.AvgJCT = sum / float64(res.Finished)
		res.AvgQueue /= float64(res.Finished)
	}
	first := jobs[0].ArrivalSec
	for _, j := range jobs {
		if j.ArrivalSec < first {
			first = j.ArrivalSec
		}
	}
	res.Makespan = now - first
}
