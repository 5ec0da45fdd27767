package easyscale

import (
	"math"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/models"
	"repro/internal/workload"
)

// TestTitleInOneRun checks both halves of the paper's title in one run of
// the one scheduler loop: a 64-GPU V100/P100/T4 fleet shared by two teams
// with borrowing, and a tenant trace in which four jobs train real zoo
// models at small batch — at D1+D2 where the model allows it, at D1 where it
// relies on vendor kernels — while the rest are throughput numbers. The whole
// trace runs to completion in heter and in homo mode.
//
// Consistent accuracy: every real job ends bitwise identical to fixed-DoP
// DDP after the same steps. Improved utilisation: the plane resized every
// real job the way it resizes the numbers — out, and in by a reclaim, a
// release or a Role-3 fallback — heter mode mixed GPU types, and no job was
// handed back the GPUs it had just fallen back from.
//
// Scaling: the tick lets the slowest real job run half a step per tick on
// one V100, the real jobs' work is ten ticks at full width, and the trace's
// clock (arrivals and the numbers' work) shrinks with the tick and four
// times more, so the fleet turns over while the real jobs run. The D2 jobs
// belong to the small team and borrow; the D1 jobs keep a one-GPU floor on
// the large team's own quota, which no reclaim takes, so they stay on the
// GPU type they started on. An operator releases one lease of each real job
// once, mid-life.
func TestTitleInOneRun(t *testing.T) {
	reals := map[int]string{30: "bert", 33: "swintransformer", 36: "resnet50", 39: "yolov3"} // by trace index
	const ests, batch, minTicks = 4, 2, 10
	tick := 0.0
	for _, m := range reals {
		tick = max(tick, 0.5/controlplane.CapabilityFor(m)[V100])
	}
	work := map[string]int{}
	for _, m := range reals {
		work[m] = int(math.Ceil(minTicks * ests * controlplane.CapabilityFor(m)[V100] * tick))
	}
	traceScale := tick / 10 / 4 // the trace was generated for 10 s ticks

	realCfg := func(model string) Config {
		cfg := DefaultConfig(ests)
		cfg.BatchPerEST = batch
		cfg.D2 = !models.MustBuild(model, 0).UsesVendorKernels
		return cfg
	}
	refs := map[string]uint64{}
	refHash := func(model string, gpu GPUType) uint64 {
		key := model + "@" + gpu.String()
		if _, ok := refs[key]; !ok {
			refs[key] = fixedDoP(t, realCfg(model), model, gpu, work[model]).ParamsHash()
		}
		return refs[key]
	}

	for _, homo := range []bool{false, true} {
		t.Run(map[bool]string{false: "heter", true: "homo"}[homo], func(t *testing.T) {
			p := newPlane(tick, controlplane.Config{
				Inventory: Resources{V100: 24, P100: 20, T4: 20},
				Teams: []controlplane.TeamConfig{
					{Name: "ads", Quota: Resources{V100: 16, P100: 16, T4: 16}},
					{Name: "nlp", Quota: Resources{V100: 6, P100: 4, T4: 4}},
				},
				AllowBorrowing:  true,
				HomogeneousOnly: homo,
			})
			d := NewDriver(p)
			trace := workload.GenerateTenants(60, []string{"ads", "nlp"}, 200, 5)
			bound := map[string]*Binding{}
			released := map[string]bool{}
			next, ticks := 0, 0
			for ; ticks < 20000 && p.FinishedCount() < len(trace); ticks++ {
				now := float64(ticks) * tick
				for ; next < len(trace) && trace[next].ArrivalSec*traceScale <= now; next++ {
					spec := trace[next]
					spec.ArrivalSec *= traceScale
					m, ok := reals[next]
					if !ok {
						spec.WorkSteps *= traceScale
						p.Submit(spec)
						continue
					}
					cfg := realCfg(m)
					spec.Model, spec.MaxP, spec.WorkSteps, spec.MinGPUs, spec.Team = m, ests, float64(work[m]), 0, "nlp"
					if !cfg.D2 {
						spec.MinGPUs, spec.Team = 1, "ads"
					}
					job, err := NewJob(cfg, m)
					if err != nil {
						t.Fatal(err)
					}
					if bound[spec.ID], err = d.Submit(spec, job); err != nil {
						t.Fatal(err)
					}
				}
				for id, b := range bound {
					if !released[id] && !b.done && p.Held(id).Total() >= 2 && b.Events[len(b.Events)-1].AtSec <= now-2*tick {
						released[id] = releaseNewestLease(p, id)
					}
				}
				if err := d.Tick(now); err != nil {
					t.Fatal(err)
				}
			}
			if p.FinishedCount() != len(trace) {
				t.Fatalf("%d of %d jobs finished in %d ticks", p.FinishedCount(), len(trace), ticks)
			}

			log := p.DecisionLog()
			stats := map[string]controlplane.JobStat{}
			for _, s := range p.JobStats() {
				stats[s.ID] = s
			}
			mixed := false
			for id, b := range bound {
				var outs, ins, fallbacks, takes int
				for i, ev := range b.Events {
					if i > 0 && ev.To.Total() > ev.From.Total() {
						outs++
					}
					if ev.To.Total() < ev.From.Total() {
						ins++
					}
					mixed = mixed || len(gpuTypes(ev.To)) > 1
					if ev.Fallback {
						fallbacks++
						if i+1 < len(b.Events) && b.Events[i+1].To == ev.From {
							t.Errorf("%s was handed %s again right after falling back from it", id, ev.From)
						}
					}
				}
				for _, line := range log {
					if strings.Contains(line, "plane.preempt") && strings.Contains(line, "(job "+id+",") ||
						strings.Contains(line, "plane.release") && strings.Contains(line, "job "+id+")") {
						takes++
					}
				}
				s := stats[id]
				lived := (s.FinishSec - s.StartSec) / tick
				t.Logf("%s %-15s lived %3.0f ticks: %d scale-outs, %d scale-ins (%d fallbacks), %d reclaims or releases",
					id, b.job.Workload.Name, lived, outs, ins, fallbacks, takes)
				// a scale-in the job saw that was not a same-tick trim: a
				// fallback, or a shrink where the log names a reclaim or release
				if outs == 0 || fallbacks == 0 && (ins == 0 || takes == 0) {
					t.Errorf("%s: want a scale-out and a fallback, reclaim or release; saw %d, %d scale-ins and %d takes", id, outs, ins, takes)
				}
				if lived < minTicks {
					t.Errorf("%s lived %.1f ticks, want >= %d", id, lived, minTicks)
				}
				gpu := V100
				if !b.job.Cfg.D2 {
					for _, ty := range gpuTypes(b.Events[0].To) {
						gpu = ty
					}
				}
				if b.job.GlobalStep() != work[b.job.Workload.Name] || b.job.ParamsHash() != refHash(b.job.Workload.Name, gpu) {
					t.Errorf("%s at step %d of %d: parameters differ from fixed-DoP DDP on %s",
						id, b.job.GlobalStep(), work[b.job.Workload.Name], gpu)
				}
			}
			if !homo && !mixed {
				t.Error("heter mode never placed a real job on mixed GPU types")
			}
			if !strings.Contains(strings.Join(log, "\n"), "fell back") {
				t.Error("no Role-3 fallback in the decision log")
			}
			t.Logf("%d ticks, utilisation %.3f", ticks, p.Report().Utilization)
		})
	}
}

// releaseNewestLease releases the newest active lease of a job, found
// through the decision log's mint lines, and reports whether it found one.
func releaseNewestLease(p *controlplane.Plane, jobID string) bool {
	log := p.DecisionLog()
	for i := len(log) - 1; i >= 0; i-- {
		// "<time> plane.lease   mint L0042: 2xV100 -> job <id> team ..."
		f := strings.Fields(log[i])
		if len(f) > 7 && f[1] == "plane.lease" && f[7] == jobID && p.Release(strings.TrimSuffix(f[3], ":")) == nil {
			return true
		}
	}
	return false
}
