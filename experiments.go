package easyscale

import (
	"fmt"

	"repro/internal/elastic"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Result is the output of one experiment regeneration: paper-style table
// rows plus optional named series for the figure's curves.
type Result struct {
	ID    string
	Title string
	Rows  []string
	// Series holds figure curves: name → (x, y) points.
	Series []Series
}

// Series is one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// String renders the result as a printable block.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		s += row + "\n"
	}
	return s
}

func row(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// Fig01ServingLoad regenerates Figure 1: the online-serving cluster's GPU
// load over two days, whose idle/peak gap motivates opportunistic elastic
// training.
func Fig01ServingLoad(totalGPUs int, seed uint64) Result {
	load := workload.ServingLoad(2*1440, totalGPUs, seed)
	st := workload.Stats(load)
	res := Result{ID: "fig1", Title: "Online serving GPU cluster load variation (2 days)"}
	res.Rows = append(res.Rows,
		row("total GPUs: %d", totalGPUs),
		row("serving load: min=%d max=%d mean=%d", st.Min, st.Max, st.Mean),
		row("idle-vs-peak gap: %d GPUs (paper: up to ~2,000 on 3,000+)", st.Gap),
	)
	series := Series{Name: "allocated GPUs"}
	for m := 0; m < len(load); m += 60 {
		series.X = append(series.X, float64(m))
		series.Y = append(series.Y, float64(load[m]))
	}
	res.Series = []Series{series}
	return res
}

// baselineRun trains one baseline-framework configuration for `epochs`
// epochs and returns the per-epoch overall accuracy and the final per-class
// accuracies.
func baselineRun(fw elastic.Framework, workload string, world, epochs int, gamma float64) (acc []float64, perClass []float64, losses []float64) {
	cfg := elastic.BaselineConfig{
		Framework:   fw,
		Seed:        42,
		RefWorld:    4,
		BatchPerGPU: 8,
		BaseLR:      0.04,
		Momentum:    0.9,
	}
	if gamma > 0 {
		cfg.StepLRSize = 1
		cfg.StepLRGamma = gamma
	}
	j, err := elastic.NewBaselineJob(cfg, workload, world)
	if err != nil {
		panic(err)
	}
	for e := 0; e < epochs; e++ {
		cur := j.Epoch()
		for j.Epoch() == cur {
			if err := j.RunStep(); err != nil {
				panic(err)
			}
			var sum float32
			for _, l := range j.LastLosses() {
				sum += l
			}
			losses = append(losses, float64(sum/float32(len(j.LastLosses()))))
		}
		ev := j.Evaluate()
		acc = append(acc, ev.Overall)
		perClass = ev.PerClass
	}
	return acc, perClass, losses
}

// Fig02AccuracyCurves regenerates Figure 2: validation accuracy of the same
// model trained by DDP (fixed 4 GPUs) vs TorchElastic and Pollux at 1/2/4/8
// GPUs, with fixed seeds — the inconsistency is purely semantic.
func Fig02AccuracyCurves(workload string, epochs int) Result {
	res := Result{ID: "fig2", Title: "Non-deterministic accuracy across GPU counts (" + workload + ")"}
	type runSpec struct {
		name  string
		fw    elastic.Framework
		world int
	}
	runs := []runSpec{{"DDP-4GPU", elastic.FixedDDP, 4}}
	for _, w := range []int{1, 2, 4, 8} {
		runs = append(runs, runSpec{fmt.Sprintf("TE-%dGPU", w), elastic.TorchElastic, w})
	}
	for _, w := range []int{1, 2, 4, 8} {
		runs = append(runs, runSpec{fmt.Sprintf("Pollux-%dGPU", w), elastic.Pollux, w})
	}
	for _, w := range []int{1, 2, 4} { // VirtualFlow needs world | refWorld
		runs = append(runs, runSpec{fmt.Sprintf("VF-%dGPU", w), elastic.VirtualFlow, w})
	}
	finals := map[string]float64{}
	for _, r := range runs {
		acc, _, _ := baselineRun(r.fw, workload, r.world, epochs, 0)
		s := Series{Name: r.name}
		for e, a := range acc {
			s.X = append(s.X, float64(e+1))
			s.Y = append(s.Y, a)
		}
		res.Series = append(res.Series, s)
		finals[r.name] = acc[len(acc)-1]
		res.Rows = append(res.Rows, row("%-14s final accuracy %.4f", r.name, acc[len(acc)-1]))
	}
	spread := func(prefix string) float64 {
		var vals []float64
		for name, a := range finals {
			if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
				vals = append(vals, a)
			}
		}
		return metrics.Spread(vals)
	}
	res.Rows = append(res.Rows,
		row("TE accuracy spread across GPU counts:     %.4f", spread("TE-")),
		row("Pollux accuracy spread across GPU counts: %.4f", spread("Pollux-")),
		row("VirtualFlow accuracy spread (grad accum): %.4f", spread("VF-")),
		row("(paper: non-negligible spread for TE/Pollux, e.g. up to 5.8%% at epoch 10;"),
		row(" VirtualFlow far closer yet still not identical — ~0.4%% on ResNet50)"),
	)
	return res
}

// Fig03PerClassVariance regenerates Figure 3: overall and per-class accuracy
// of TorchElastic and Pollux at 1/2/4/8 GPUs after longer training — the
// per-class variance is the model-usability hazard the paper highlights.
func Fig03PerClassVariance(workload string, epochs int) Result {
	res := Result{ID: "fig3", Title: "Per-class accuracy variance across GPU counts (" + workload + ")"}
	worlds := []int{1, 2, 4, 8}
	for _, fw := range []elastic.Framework{elastic.TorchElastic, elastic.Pollux} {
		perClassByWorld := map[int][]float64{}
		overall := map[int]float64{}
		for _, w := range worlds {
			acc, pc, _ := baselineRun(fw, workload, w, epochs, 0)
			perClassByWorld[w] = pc
			overall[w] = acc[len(acc)-1]
			line := fmt.Sprintf("%-12s %dGPU overall %.3f | per-class:", fw, w, overall[w])
			for _, a := range pc {
				line += fmt.Sprintf(" %.2f", a)
			}
			res.Rows = append(res.Rows, line)
		}
		// per-class spread across worlds
		classes := len(perClassByWorld[worlds[0]])
		maxSpread, sumSpread := 0.0, 0.0
		for c := 0; c < classes; c++ {
			lo, hi := 1.0, 0.0
			for _, w := range worlds {
				a := perClassByWorld[w][c]
				if a < lo {
					lo = a
				}
				if a > hi {
					hi = a
				}
			}
			if hi-lo > maxSpread {
				maxSpread = hi - lo
			}
			sumSpread += hi - lo
		}
		loAll, hiAll := 1.0, 0.0
		for _, w := range worlds {
			if overall[w] < loAll {
				loAll = overall[w]
			}
			if overall[w] > hiAll {
				hiAll = overall[w]
			}
		}
		res.Rows = append(res.Rows, row("%-12s overall spread %.3f | per-class spread max %.3f avg %.3f",
			fw, hiAll-loAll, maxSpread, sumSpread/float64(classes)))
	}
	res.Rows = append(res.Rows, row("(paper: per-class variance up to 7.4%% TE / 17.3%% Pollux)"))
	return res
}

// Fig04GammaTrend regenerates Figure 4: the StepLR gamma sweep. Under fixed
// 4-GPU DDP the loss curves separate cleanly by gamma; under Pollux on
// 1/2/4 GPUs the semantics shift with the world size and the trend muddles.
func Fig04GammaTrend(workload string, epochs int) Result {
	res := Result{ID: "fig4", Title: "Hyper-parameter (gamma) effect legibility (" + workload + ")"}
	gammas := []float64{0.1, 0.3, 0.5}

	collect := func(fw elastic.Framework, worlds []int) [][]float64 {
		curves := make([][]float64, len(gammas))
		for i, g := range gammas {
			world := 4
			if fw == elastic.Pollux {
				world = worlds[i]
			}
			_, _, losses := baselineRun(fw, workload, world, epochs, g)
			curves[i] = losses
			name := fmt.Sprintf("%s-%dGPU-gamma%.1f", fw, world, g)
			s := Series{Name: name}
			for k := 0; k < len(losses); k += 4 {
				s.X = append(s.X, float64(k))
				s.Y = append(s.Y, losses[k])
			}
			res.Series = append(res.Series, s)
		}
		return curves
	}
	tailMean := func(xs []float64) float64 {
		n := len(xs) / 4
		if n == 0 {
			n = 1
		}
		sum := 0.0
		for _, v := range xs[len(xs)-n:] {
			sum += v
		}
		return sum / float64(n)
	}
	crossings := metrics.Crossings

	ddp := collect(elastic.FixedDDP, nil)
	pol := collect(elastic.Pollux, []int{1, 2, 4})
	ddpCross := crossings(ddp[0], ddp[1]) + crossings(ddp[1], ddp[2])
	polCross := crossings(pol[0], pol[1]) + crossings(pol[1], pol[2])
	res.Rows = append(res.Rows,
		row("DDP-4GPU    tail loss by gamma: %.4f / %.4f / %.4f (γ=0.1/0.3/0.5)", tailMean(ddp[0]), tailMean(ddp[1]), tailMean(ddp[2])),
		row("Pollux-elas tail loss by gamma: %.4f / %.4f / %.4f (on 1/2/4 GPUs)", tailMean(pol[0]), tailMean(pol[1]), tailMean(pol[2])),
		row("late-training curve crossings: DDP=%d Pollux=%d", ddpCross, polCross),
		row("(paper: DDP shows a clear gamma trend; elastic Pollux oscillates, hiding it)"),
	)
	return res
}
