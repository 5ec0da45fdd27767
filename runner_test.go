package easyscale

import (
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/workload"
)

// tickFor returns a plane tick short enough that a job of model on maxP
// V100s — the fastest the plane ever credits it, since a plan's throughput
// never exceeds maxP ESTs on the fastest type — needs at least ticks ticks
// for workSteps global steps.
func tickFor(model string, maxP, workSteps, ticks int) float64 {
	return float64(workSteps) / float64(ticks*maxP) / controlplane.CapabilityFor(model)[V100]
}

// newPlane builds a plane on that tick, with a restart pause of half a tick.
func newPlane(tick float64, cfg controlplane.Config) *controlplane.Plane {
	cfg.TickSec, cfg.RestartSec = tick, tick/2
	return controlplane.New(cfg)
}

// gpuTypes lists the types c holds GPUs of, in type order.
func gpuTypes(c Counts) (out []GPUType) {
	for t, n := range c {
		if n > 0 {
			out = append(out, GPUType(t))
		}
	}
	return out
}

// fixedDoP is the reference: the job trained for steps on numESTs GPUs of
// one type.
func fixedDoP(t *testing.T, cfg Config, model string, gpu GPUType, steps int) *Job {
	t.Helper()
	ref, err := NewJob(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	gpus := make([]GPUType, cfg.NumESTs)
	for i := range gpus {
		gpus[i] = gpu
	}
	if err := ref.Attach(EvenPlacement(cfg.NumESTs, gpus...)); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	return ref
}

// bind submits a live job of model to the driver as an elastic job.
func bind(t *testing.T, d *Driver, cfg Config, id, model string, workSteps int) *Binding {
	t.Helper()
	job, err := NewJob(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Submit(workload.JobSpec{ID: id, Model: model, MaxP: cfg.NumESTs, WorkSteps: float64(workSteps)}, job)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// drive ticks from tick number from until every binding is done, calling
// before(i) ahead of tick i.
func drive(t *testing.T, d *Driver, tick float64, from int, before func(i int), bs ...*Binding) {
	t.Helper()
	for i := from; i < from+10000; i++ {
		if before != nil {
			before(i)
		}
		if err := d.Tick(float64(i) * tick); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, b := range bs {
			done = done && b.done
		}
		if done {
			return
		}
	}
	t.Fatal("bound jobs never finished")
}

// servingGang submits a number-only gang of n V100s that finishes after
// about ticks ticks.
func servingGang(p *controlplane.Plane, id, team string, n int, tick float64, ticks float64) {
	p.Submit(workload.JobSpec{ID: id, Model: "neumf", MaxP: n, MinGPUs: n, Team: team,
		WorkSteps: ticks * tick * float64(n) * controlplane.CapabilityFor("neumf")[V100]})
}

// TestAutoScaledBitwiseConsistent: a live job the plane starts on whatever
// is free and resizes as it sees fit still ends bitwise identical to
// fixed-DoP DDP.
func TestAutoScaledBitwiseConsistent(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	ref := fixedDoP(t, cfg, "electra", V100, 12)

	tick := tickFor("electra", 4, 12, 6)
	d := NewDriver(newPlane(tick, controlplane.Config{Inventory: Resources{V100: 1, P100: 1, T4: 2}}))
	b := bind(t, d, cfg, "electra", "electra", 12)
	drive(t, d, tick, 0, nil, b)
	if b.job.GlobalStep() != 12 || b.job.Attached() {
		t.Fatalf("finished job at step %d, attached %v; want step 12, detached", b.job.GlobalStep(), b.job.Attached())
	}
	if len(b.Events) == 0 {
		t.Fatal("the plane never placed the job")
	}
	if !ParamsEqual(ref, b.job) {
		t.Fatal("plane-driven job diverged from fixed-DoP DDP")
	}
}

// scaleOutScenario runs a live job of model that starts on the one V100 a
// serving gang leaves free and may scale out once the gang finishes.
func scaleOutScenario(t *testing.T, model string, workSteps int) (*controlplane.Plane, *Binding, *Job) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	tick := tickFor(model, 4, workSteps, 10)
	p := newPlane(tick, controlplane.Config{Inventory: Resources{V100: 4}})
	servingGang(p, "serving", "", 3, tick, 2)
	d := NewDriver(p)
	b := bind(t, d, cfg, "live", model, workSteps)
	if err := d.Tick(0); err != nil {
		t.Fatal(err)
	}
	if got := b.job.Placement().Devices; len(got) != 1 {
		t.Fatalf("initial placement %v, want the one free V100", got)
	}
	drive(t, d, tick, 1, nil, b)
	return p, b, fixedDoP(t, cfg, model, V100, workSteps)
}

// TestDriverScaleOut: when the serving gang finishes, the plane grants the
// freed V100s to the live job, which scales out onto them.
func TestDriverScaleOut(t *testing.T) {
	_, b, ref := scaleOutScenario(t, "bert", 16)
	outs := 0
	for _, ev := range b.Events {
		if ev.From.Total() > 0 && ev.To.Total() > ev.From.Total() {
			outs++
		}
	}
	if outs == 0 {
		t.Fatalf("no scale-out among %+v", b.Events)
	}
	if !ParamsEqual(ref, b.job) {
		t.Fatal("scaled-out job diverged from fixed-DoP DDP")
	}
}

// TestDriverObserveFallback: the scale-out onto four V100s buys electra far
// less than the plan's 4x in device time, so the job falls back (Role-3)
// and returns the granted GPUs; it is not handed the same ones again on
// the next change, and it keeps training consistently.
func TestDriverObserveFallback(t *testing.T) {
	p, b, ref := scaleOutScenario(t, "electra", 24)
	fell := -1
	for i, ev := range b.Events {
		if ev.Fallback {
			fell = i
			break
		}
	}
	if fell < 0 {
		t.Fatalf("no fallback among %+v", b.Events)
	}
	ev := b.Events[fell]
	if ev.To.Total() >= ev.From.Total() || ev.To.Total() == 0 {
		t.Fatalf("fallback %+v should shrink to the GPUs the job held before", ev)
	}
	if fell+1 < len(b.Events) && b.Events[fell+1].To == ev.From {
		t.Fatalf("re-granted %s right after falling back from it", ev.From)
	}
	if !strings.Contains(strings.Join(p.DecisionLog(), "\n"), "fell back") {
		t.Fatal("the fallback is not in the plane's decision log")
	}
	if !ParamsEqual(ref, b.job) {
		t.Fatal("job diverged from fixed-DoP DDP across the fallback")
	}
}

// TestDriverShrink: quota-backed serving gangs reclaim the GPUs a live job
// borrowed, scaling it in and then evicting it without losing progress; it
// comes back when the gangs finish and ends bitwise identical to fixed-DoP
// DDP.
func TestDriverShrink(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BatchPerEST = 4
	const work = 12
	tick := tickFor("neumf", 2, work, 10)
	p := newPlane(tick, controlplane.Config{
		Inventory:      Resources{V100: 2},
		Teams:          []controlplane.TeamConfig{{Name: "serve", Quota: Resources{V100: 2}}, {Name: "train"}},
		AllowBorrowing: true,
	})
	d := NewDriver(p)
	job, err := NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Submit(workload.JobSpec{ID: "live", Model: "neumf", MaxP: 2, WorkSteps: work, Team: "train"}, job)
	if err != nil {
		t.Fatal(err)
	}
	var evictedAt int
	drive(t, d, tick, 0, func(i int) {
		switch i {
		case 4:
			if n := len(job.Placement().Devices); n != 2 {
				t.Fatalf("before the reclaim: %d devices, want 2", n)
			}
			servingGang(p, "burst-1", "serve", 1, tick, 6)
		case 5:
			if n := len(job.Placement().Devices); n != 1 {
				t.Fatalf("after a reclaim of one GPU: %d devices, want 1", n)
			}
			servingGang(p, "burst-2", "serve", 1, tick, 4)
		case 6:
			if job.Attached() {
				t.Fatal("job should be evicted after full revocation")
			}
			evictedAt = job.GlobalStep()
		case 7:
			if job.Attached() || job.GlobalStep() != evictedAt {
				t.Fatal("an evicted job must neither run nor lose progress")
			}
		}
	}, b)
	if !ParamsEqual(fixedDoP(t, cfg, "neumf", V100, work), job) {
		t.Fatal("shrunk, evicted and re-placed job diverged from fixed-DoP DDP")
	}
}

// TestDriverHomogeneousPolicy: a vendor-kernel model without D2 stays on
// one GPU type, and ends bitwise identical to DDP on that type.
func TestDriverHomogeneousPolicy(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	cfg.D2 = false
	const work = 8
	tick := tickFor("vgg19", 4, work, 6)
	d := NewDriver(newPlane(tick, controlplane.Config{Inventory: Resources{V100: 2, P100: 2, T4: 2}}))
	b := bind(t, d, cfg, "vgg19", "vgg19", work)
	drive(t, d, tick, 0, nil, b)
	var typ GPUType
	for _, ev := range b.Events {
		if len(gpuTypes(ev.To)) > 1 {
			t.Fatalf("homogeneous-only job got mixed GPUs: %v", ev.To)
		}
		for _, ty := range gpuTypes(ev.To) {
			typ = ty
		}
	}
	if !ParamsEqual(fixedDoP(t, cfg, "vgg19", typ, work), b.job) {
		t.Fatalf("job diverged from fixed-DoP DDP on %s", typ)
	}
}
