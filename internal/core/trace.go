package core

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/obs"
)

// jobObs bundles a job's tracer handle with its pre-registered track ids
// and counters, so the per-step hot path records spans with plain integer
// arguments and no lookups or allocations. A nil *jobObs (tracing off)
// makes every method a single pointer test.
//
// Tracing is read-only by construction: nothing in this file (or any other
// instrumentation site) feeds a tracer value back into the training
// computation, which is why the bitwise params-hash tests hold with tracing
// enabled, disabled, and absent.
type jobObs struct {
	tr *obs.Tracer
	// estTracks maps virtual rank → track id, one Perfetto row per EST.
	estTracks []int
	// runTrack carries global-step spans; schedTrack carries placement
	// decision events (attach, scale, detach).
	runTrack, schedTrack int

	steps, switches *obs.Counter
}

// SetTracer attaches (or with nil, detaches) an execution tracer to the
// job, pre-registering one track per EST virtual rank plus the run and
// scheduling tracks, and forwarding the tracer to the job's communicator.
// Safe to call between steps; not concurrently with a running step.
func (j *Job) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		j.obs = nil
		j.ddp.SetTracer(nil)
		return
	}
	o := &jobObs{
		tr:         tr,
		runTrack:   tr.Track("run"),
		schedTrack: tr.Track("sched"),
		estTracks:  make([]int, j.Cfg.NumESTs),
		steps:      tr.Counter("core.global-steps"),
		switches:   tr.Counter("core.ctx-switches"),
	}
	for r := range o.estTracks {
		o.estTracks[r] = tr.Track(fmt.Sprintf("est-%d", r))
	}
	// cpu.avx2 records whether the AVX2 micro-kernels are driving this job
	// (1) or a narrower variant is (0) — the one hardware-dispatch decision
	// that affects throughput, pinned into every trace so profiles from
	// different machines are comparable. Counter value, not ISA string: the
	// exporter only carries integers.
	if c := tr.Counter("cpu.avx2"); c.Value() == 0 && kernels.ActiveISA() == kernels.ISAAVX2 {
		c.Add(1)
	}
	j.obs = o
	j.ddp.SetTracer(tr)
}

// Tracer returns the attached execution tracer (nil when tracing is off).
func (j *Job) Tracer() *obs.Tracer {
	if j.obs == nil {
		return nil
	}
	return j.obs.tr
}

// now reads the tracer clock (0 when tracing is off).
func (o *jobObs) now() int64 {
	if o == nil {
		return 0
	}
	return o.tr.Now()
}

// estSpan records an interval on one EST's track. Hot path: static name,
// integer args only.
func (o *jobObs) estSpan(rank int, cat obs.Cat, name string, start, a0, a1 int64) {
	if o == nil {
		return
	}
	o.tr.Span(o.estTracks[rank], cat, name, start, a0, a1)
}

// runSpan records an interval on the run track.
func (o *jobObs) runSpan(cat obs.Cat, name string, start, a0, a1 int64) {
	if o == nil {
		return
	}
	o.tr.Span(o.runTrack, cat, name, start, a0, a1)
}

// countStep bumps the global-step counter.
func (o *jobObs) countStep() {
	if o == nil {
		return
	}
	o.steps.Add(1)
}

// countSwitch bumps the context-switch counter.
func (o *jobObs) countSwitch() {
	if o == nil {
		return
	}
	o.switches.Add(1)
}

// decision records a placement decision event on the scheduling track —
// the "why this placement" log. Its detail renders p, if given, and only
// when a tracer is attached.
func (o *jobObs) decision(name string, p *Placement, a0, a1 int64) {
	if o == nil {
		return
	}
	detail := ""
	if p != nil {
		detail = fmt.Sprintf("devices=%v assignment=%v", p.Devices, p.Assignment)
	}
	o.tr.Event(o.schedTrack, obs.CatSched, name, detail, a0, a1)
}
