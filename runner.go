package easyscale

import (
	"fmt"

	"repro/internal/controlplane"
	"repro/internal/sched"
)

// AutoScaler closes the framework–scheduler co-design loop on a *live* job:
// an intra-job scheduler (companion module + waste model) watches a
// fluctuating free-GPU pool, proposes scale-outs to the inter-job scheduler,
// and applies every granted or revoked allocation to the running core.Job
// through on-demand checkpoint scaling — while the job's numerics stay
// bitwise identical to a fixed-DoP run.
type AutoScaler struct {
	Job   *Job
	Intra *IntraJob
	Inter *InterJob

	// HomogeneousOnly is derived from the model scan (vendor kernels → no
	// D2 → one GPU type).
	HomogeneousOnly bool
}

// NewAutoScaler wires a job to the scheduler stack. The companion module's
// capability model comes from the workload's calibrated FLOP costs; the
// homogeneity policy follows the model scanner unless the config already
// enables D2.
func NewAutoScaler(job *Job, free Resources) *AutoScaler {
	caps := controlplane.CapabilityFor(job.Workload.Name)
	homogOnly := !job.Cfg.D2
	cp := NewCompanion(job.Cfg.NumESTs, caps)
	return &AutoScaler{
		Job:             job,
		Intra:           NewIntraJob(job.Workload.Name, cp, homogOnly),
		Inter:           NewInterJob(free),
		HomogeneousOnly: homogOnly,
	}
}

// Rebalance runs one scheduling round: propose against the free pool, apply
// any grant to the live job (checkpoint + restore + attach on the new
// placement), and return whether the job was rescaled.
func (a *AutoScaler) Rebalance() (bool, error) {
	free := a.Inter.Free()
	accepted := sched.RoundPass(a.Inter.Policy, free, a.Intra.Proposals(free, 3), a.Inter.Trace)
	if len(accepted) == 0 {
		return false, nil
	}
	pr := accepted[0]
	if _, ok := a.Intra.Grant(pr); !ok {
		return false, nil // the round ran on a copy of the pool: nothing to hand back
	}
	a.Inter.Take(sched.Resources{pr.Type: pr.Count})
	if unused := a.Intra.TrimUnused(); unused != nil {
		a.Inter.Release(unused)
	}
	return true, a.applyPlacement()
}

// Shrink revokes GPUs from the live job (a high-priority arrival reclaiming
// capacity): the job scales in to whatever remains, or detaches entirely.
func (a *AutoScaler) Shrink(take Resources) error {
	cur := a.Intra.Current()
	remain := sched.Resources{}
	for t, n := range cur {
		k := n - take[t]
		if k > 0 {
			remain[t] = k
		}
	}
	if remain.Total() == 0 {
		a.Job.Detach()
		a.Intra.Apply(sched.Resources{})
		return nil
	}
	if _, ok := a.Intra.Apply(remain); !ok {
		return fmt.Errorf("easyscale: no plan for remaining resources %v", remain)
	}
	return a.applyPlacement()
}

// Observe feeds a measured aggregate throughput (global steps/sec) back to
// the intra-job scheduler. If the job recently scaled out and the measurement
// falls short of the plan's estimate, the scheduler falls back: the newly
// granted GPUs are released to the pool and the job rescales to its previous
// resources (Role-3 of §3.4).
func (a *AutoScaler) Observe(measured float64) (fellBack bool, err error) {
	release, fell := a.Intra.ObserveThroughput(measured)
	if !fell {
		return false, nil
	}
	a.Inter.Release(release)
	return true, a.applyPlacement()
}

// applyPlacement realizes the intra-job scheduler's current plan on the job.
func (a *AutoScaler) applyPlacement() error {
	p := a.Intra.RenderPlacement(a.Job.Cfg.NumESTs)
	if err := p.Validate(a.Job.Cfg.NumESTs); err != nil {
		return err
	}
	if !a.Job.Attached() {
		return a.Job.Attach(p)
	}
	return a.Job.Scale(p)
}

// RunAutoScaled trains the job for totalSteps, running a scheduling round
// every `interval` steps against the free pool (which the caller may mutate
// between calls through the returned AutoScaler). It is the minimal live
// deployment loop: elastic, scheduler-driven, accuracy-consistent.
func RunAutoScaled(job *Job, free Resources, totalSteps, interval int) (*AutoScaler, error) {
	a := NewAutoScaler(job, free)
	if _, err := a.Rebalance(); err != nil {
		return nil, err
	}
	if !job.Attached() {
		return nil, fmt.Errorf("easyscale: no GPUs available to start the job")
	}
	done := 0
	for done < totalSteps {
		n := interval
		if done+n > totalSteps {
			n = totalSteps - done
		}
		if err := job.RunSteps(n); err != nil {
			return nil, err
		}
		done += n
		if done < totalSteps {
			if _, err := a.Rebalance(); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}
