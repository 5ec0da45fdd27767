package easyscale

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sched"
	"repro/internal/workload"
)

// PaperInventory is the §5.2 testbed: 32 V100 + 16 P100 + 16 T4 (64 GPUs).
func PaperInventory() sched.Resources {
	return sched.Resources{device.V100: 32, device.P100: 16, device.T4: 16}
}

// Fig14TraceJCT regenerates Figure 14: average JCT and makespan of YARN-CS,
// EasyScale-homo, and EasyScale-heter on the 64-GPU trace, averaged over
// seeds.
func Fig14TraceJCT(jobs int, meanGapSec float64, seeds []uint64) Result {
	res := Result{ID: "fig14", Title: "Trace experiment: JCT and makespan (64 heterogeneous GPUs)"}
	inv := PaperInventory()
	modes := []cluster.Mode{cluster.YARNCS, cluster.EasyScaleHomo, cluster.EasyScaleHeter}
	jct := map[cluster.Mode]float64{}
	mk := map[cluster.Mode]float64{}
	allJCTs := map[cluster.Mode][]float64{}
	for _, seed := range seeds {
		tr := workload.Generate(jobs, meanGapSec, seed)
		for _, m := range modes {
			r := cluster.Simulate(cluster.Config{Mode: m, Inventory: inv}, tr)
			jct[m] += r.AvgJCT / float64(len(seeds))
			mk[m] += r.Makespan / float64(len(seeds))
			for _, v := range r.JCTs {
				allJCTs[m] = append(allJCTs[m], v)
			}
		}
	}
	res.Rows = append(res.Rows, row("%-16s %12s %12s %10s %10s %10s %10s", "scheduler", "avg JCT (s)", "makespan (s)", "JCT gain", "mk gain", "p50 JCT", "p99 JCT"))
	for _, m := range modes {
		sum := metrics.Summarize(allJCTs[m])
		res.Rows = append(res.Rows, row("%-16s %12.0f %12.0f %9.1fx %9.1fx %10.0f %10.0f",
			m, jct[m], mk[m], jct[cluster.YARNCS]/jct[m], mk[cluster.YARNCS]/mk[m], sum.P50, sum.P99))
	}
	res.Rows = append(res.Rows, row("(paper: EasyScale-homo 8.3x JCT / 2.5x makespan; heter 13.2x / 2.8x)"))
	return res
}

// Fig15AllocTimeline regenerates Figure 15: allocated GPUs over time for the
// two EasyScale configurations on the same workload.
func Fig15AllocTimeline(jobs int, meanGapSec float64, seed uint64) Result {
	res := Result{ID: "fig15", Title: "Allocated GPUs over time: EasyScale-homo vs EasyScale-heter"}
	inv := PaperInventory()
	tr := workload.Generate(jobs, meanGapSec, seed)
	homo := cluster.Simulate(cluster.Config{Mode: cluster.EasyScaleHomo, Inventory: inv}, tr)
	heter := cluster.Simulate(cluster.Config{Mode: cluster.EasyScaleHeter, Inventory: inv}, tr)
	mkSeries := func(name string, tl []cluster.AllocSample) Series {
		s := Series{Name: name}
		for i := 0; i < len(tl); i += 30 {
			s.X = append(s.X, tl[i].Sec)
			s.Y = append(s.Y, float64(tl[i].Allocated))
		}
		return s
	}
	res.Series = []Series{mkSeries("EasyScale-homo", homo.Timeline), mkSeries("EasyScale-heter", heter.Timeline)}
	// compare over the common busy window (the shorter run's span): the
	// straggler tail of whichever run ends later would otherwise skew the
	// mean toward zero-allocation samples
	window := len(homo.Timeline)
	if n := len(heter.Timeline); n < window {
		window = n
	}
	var sumH, sumX float64
	for i := 0; i < window; i++ {
		sumH += float64(homo.Timeline[i].Allocated)
		sumX += float64(heter.Timeline[i].Allocated)
	}
	res.Rows = append(res.Rows,
		row("mean allocated GPUs over the common window: homo %.1f, heter %.1f (of %d)",
			sumH/float64(window), sumX/float64(window), inv.Total()),
		row("makespan: homo %.0fs, heter %.0fs", homo.Makespan, heter.Makespan),
		row("(paper: heter allocation generally above homo)"),
	)
	return res
}

// Fig16Production regenerates Figure 16 on the control plane: a day of
// serving gangs alone on totalGPUs V100s, then a day on which §2.1's
// production mix of training jobs, two per three GPUs arriving evenly, borrow
// what serving leaves idle (EXPERIMENTS.md says why this trace).
func Fig16Production(totalGPUs int, seed uint64) Result {
	res := Result{ID: "fig16", Title: "Production co-location: day 1 (before) vs day 2 (with EasyScale)"}
	const day = 1440 // minutes; the timeline samples every 10 s
	cfg := cluster.Config{Mode: cluster.Colocation, Inventory: sched.Resources{device.V100: totalGPUs}}
	load := workload.ServingLoad(2*day, totalGPUs, seed)
	n := totalGPUs * 2 / 3
	jobs := [2][]workload.JobSpec{workload.ServingGangs(load[:day]),
		append(workload.ServingGangs(load[day:]), workload.GenerateProduction(n, 60*day/float64(n), seed)...)}
	res.Rows = append(res.Rows, row("%-24s %10s %10s  %s", "", "day-1", "day-2", "source"))
	var alloc, util, elastic [2]float64
	var r [2]cluster.Result
	for d := range r {
		r[d] = cluster.Simulate(cfg, jobs[d])
		// day 2's training may run past midnight; the figure reads the day
		alloc[d], util[d], elastic[d] = cluster.Means(r[d].Timeline[:6*day], totalGPUs)
		s := Series{Name: fmt.Sprintf("day%d alloc%%", d+1)}
		for i := 0; i < 6*day; i += 360 {
			s.X = append(s.X, float64(d*day+i/6))
			s.Y = append(s.Y, float64(r[d].Timeline[i].Allocated)/float64(totalGPUs))
		}
		res.Series = append(res.Series, s)
	}
	refill := metrics.Summarize(cluster.Refills(r[1].Timeline[:6*day], totalGPUs))
	res.Rows = append(res.Rows,
		row("%-24s %9.1f%% %9.1f%%  plane", "GPU allocation ratio", alloc[0]*100, alloc[1]*100),
		row("%-24s %9.1f%% %9.1f%%  device-model duty cycles", "avg SM utilization", util[0]*100, util[1]*100),
		row("%-24s %10.0f %10.0f  plane", "avg elastic GPUs", elastic[0], elastic[1]),
		row("%-24s %10d %10d  plane", "serving gangs waited", r[0].Waited, r[1].Waited),
		row("%-24s %10d %10d  plane", "preemptions", r[0].Preemptions, r[1].Preemptions),
		row("%-24s %10d %10d  plane", "jobs unfinished", len(jobs[0])-r[0].Finished, len(jobs[1])-r[1].Finished),
		row("%-24s %10s %4.0fs/%3.0fs  plane (p50/max of %d refills)", "refill after release", "-", refill.P50, refill.Max, refill.Count),
		row("allocation ratio gain: +%.1f points; SM utilization gain: +%.1f%% relative",
			(alloc[1]-alloc[0])*100, (util[1]-util[0])/util[0]*100),
		row("(paper: +17.1%% allocation ratio, +62.1%% utilization, scale-in in seconds,"),
		row(" refill ≤5 min, 362 preemptions, 0 job failures)"),
	)
	return res
}

// MotivationRevocations regenerates the §2.1 statistic: the share of
// gang-scheduling revocation failures by requested GPU count.
func MotivationRevocations(jobs int, seed uint64) Result {
	res := Result{ID: "motivation", Title: "Gang-scheduling revocation failures by job size (2-day window)"}
	tr := workload.GenerateProduction(jobs, 30, seed)
	st := cluster.SimulateRevocations(tr, 48, 0.001, seed)
	res.Rows = append(res.Rows, row("total failures: %d of %d jobs", st.TotalFailures, jobs))
	for _, sz := range []int{1, 2, 4, 8, 16, 32, 64} {
		if n := st.FailuresBySize[sz]; n > 0 {
			res.Rows = append(res.Rows, row("  gang size %2d: %4d failures", sz, n))
		}
	}
	res.Rows = append(res.Rows,
		row("share of failures from jobs >8 GPUs: %.1f%% (paper: 61.7%%)", st.ShareGT8*100),
		row("share of failures from 1-GPU jobs:   %.1f%% (paper: 5.3%%)", st.ShareLE1*100),
	)
	return res
}

// Table1Workloads regenerates Table 1: the workload zoo.
func Table1Workloads() Result {
	res := Result{ID: "table1", Title: "Deep learning workloads (Table 1)"}
	res.Rows = append(res.Rows, row("%-16s %-22s %-22s %-14s", "model", "task", "dataset", "vendor kernels"))
	for _, name := range models.TableNames() {
		w := models.MustBuild(name, 0)
		vendor := "no (D2-capable)"
		if w.UsesVendorKernels {
			vendor = "yes (homog. only)"
		}
		res.Rows = append(res.Rows, row("%-16s %-22s %-22s %-14s", w.Name, w.Task, w.DatasetName, vendor))
	}
	return res
}
