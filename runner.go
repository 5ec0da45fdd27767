package easyscale

import (
	"fmt"
	"time"

	"repro/internal/controlplane"
	"repro/internal/workload"
)

// Driver binds live training jobs to a control plane, so that one scheduler
// loop decides for jobs that train and for jobs that are only throughput
// numbers. Around each plane tick it moves every bound job onto the GPUs its
// leases hold, placed by the plane's plan (Attach, Scale — the on-demand
// checkpoint — or Detach), and runs the global steps by which the plane's
// progress accounting advanced it. The first steps after a scale-out are
// measured in device time and fed back to the plane (Role-3 of §3.4), which
// may make the job fall back. Throughout, the job's parameters stay bitwise
// identical to a fixed-DoP run.
type Driver struct {
	plane *controlplane.Plane
	bound []*Binding
}

// Binding is a live job bound to a plane job, with the placement changes
// the driver applied to it.
type Binding struct {
	Events []ScaleEvent

	id   string
	job  *Job
	base int // the job's global step when it was bound
	done bool
	held Counts  // the GPUs the job's placement was rendered from
	est  float64 // the plan's estimate on them
	// steps and dev measure the job on held; baseRate and baseEst are the
	// placement a pending scale-out is checked against
	steps             int
	dev               time.Duration
	baseRate, baseEst float64
}

// ScaleEvent is one placement change: the GPUs the job left and the ones it
// moved to, and whether it was a Role-3 fallback.
type ScaleEvent struct {
	AtSec    float64
	From, To Counts
	Fallback bool
}

// NewDriver drives live jobs on plane. Number-only jobs are submitted to the
// plane directly.
func NewDriver(plane *controlplane.Plane) *Driver { return &Driver{plane: plane} }

// Submit submits spec to the plane and binds job to it. spec.ID must be new
// to the plane, spec.MaxP the job's EST count and spec.WorkSteps a whole
// number. A job without D2 is held to one GPU type at a time.
func (d *Driver) Submit(spec workload.JobSpec, job *Job) (*Binding, error) {
	if spec.MaxP != job.Cfg.NumESTs || spec.WorkSteps != float64(int(spec.WorkSteps)) || spec.WorkSteps <= 0 {
		return nil, fmt.Errorf("easyscale: job %s: MaxP %d and WorkSteps %v do not fit a job of %d ESTs",
			spec.ID, spec.MaxP, spec.WorkSteps, job.Cfg.NumESTs)
	}
	spec.HomogeneousOnly = spec.HomogeneousOnly || !job.Cfg.D2
	d.plane.Submit(spec)
	b := &Binding{id: spec.ID, job: job, base: job.GlobalStep()}
	d.bound = append(d.bound, b)
	return b, nil
}

// Tick advances the plane to nowSec and every bound job with it. A job the
// plane finished has run exactly its WorkSteps and is detached.
func (d *Driver) Tick(nowSec float64) error {
	// GPUs taken since the last tick (a release, or a reclaim for an
	// admission) are left before the tick hands GPUs out again
	if err := d.each(func(b *Binding) error { return d.apply(b, nowSec, false) }); err != nil {
		return err
	}
	d.plane.Tick(nowSec)
	return d.each(func(b *Binding) error { return d.sync(b, nowSec) })
}

func (d *Driver) each(f func(*Binding) error) error {
	for _, b := range d.bound {
		if b.done {
			continue
		}
		if err := f(b); err != nil {
			return fmt.Errorf("easyscale: job %s: %w", b.id, err)
		}
	}
	return nil
}

// sync applies the plane's placement, runs the credited steps, and observes
// a scale-out.
func (d *Driver) sync(b *Binding, now float64) error {
	credited, done := d.plane.Progress(b.id)
	if !done {
		if err := d.apply(b, now, false); err != nil {
			return err
		}
	}
	if n := b.base + int(credited) - b.job.GlobalStep(); n > 0 {
		if !b.job.Attached() { // finished in the tick it was first placed
			p, _ := d.plane.Placement(b.id, b.job.Cfg.NumESTs)
			if err := b.job.Attach(p); err != nil {
				return err
			}
		}
		devs := b.job.Devices()
		start := make([]time.Duration, len(devs))
		for i, dev := range devs {
			start[i] = dev.Now()
		}
		if err := b.job.RunSteps(n); err != nil {
			return err
		}
		var took time.Duration // the slowest GPU's
		for i, dev := range devs {
			took = max(took, dev.Now()-start[i])
		}
		b.steps, b.dev = b.steps+n, b.dev+took
	}
	if done {
		b.job.Detach()
		b.done = true
		return nil
	}
	if b.baseRate == 0 || b.steps == 0 {
		return nil
	}
	// Role-3 compares speedups: the engine's device-time rate is not in the
	// plan's units, so the plan's estimate where the job scaled out from is
	// scaled by the speedup the job measured since
	measured := b.baseEst * float64(b.steps) / b.dev.Seconds() / b.baseRate
	b.baseRate = 0
	if _, fell := d.plane.Observe(b.id, measured); !fell {
		return nil
	}
	return d.apply(b, now, true)
}

// apply moves the job onto the GPUs the plane holds for it, if they changed.
func (d *Driver) apply(b *Binding, now float64, fallback bool) error {
	held := d.plane.Held(b.id)
	if held == b.held {
		return nil
	}
	for t, n := range held {
		if n > 0 && !b.job.Cfg.D2 && len(b.Events) > 0 && b.Events[0].To[t] == 0 {
			return fmt.Errorf("placed on %s after %s: without D2 another GPU type changes the bits", held, b.Events[0].To)
		}
	}
	p, est := d.plane.Placement(b.id, b.job.Cfg.NumESTs)
	var err error
	switch {
	case held.Total() == 0:
		b.job.Detach()
	case b.job.Attached():
		err = b.job.Scale(p)
	default:
		err = b.job.Attach(p)
	}
	if err != nil {
		return err
	}
	b.Events = append(b.Events, ScaleEvent{AtSec: now, From: b.held, To: held, Fallback: fallback})
	// a scale-out is checked against the last placement the job ran steps on:
	// the one it leaves, or, if it scales out again before a step, the base of
	// the pending check
	switch {
	case held.Total() <= b.held.Total():
		b.baseRate = 0
	case b.steps > 0:
		b.baseRate, b.baseEst = float64(b.steps)/b.dev.Seconds(), b.est
	}
	b.held, b.est, b.steps, b.dev = held, est, 0, 0
	return nil
}
