// Command simcluster runs the cluster simulator: the 64-GPU trace experiment
// comparing YARN-CS against EasyScale (§5.2), or a multi-team trace on the
// control plane. The production co-location experiment (§5.3) is
// `experiments -exp fig16`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	mode := flag.String("mode", "compare", "yarn, homo, heter, compare, or tenants")
	jobs := flag.Int("jobs", 60, "number of trace jobs")
	gap := flag.Float64("gap", 30, "mean inter-arrival seconds")
	seed := flag.Uint64("seed", 11, "trace seed")
	v100 := flag.Int("v100", 32, "V100 count")
	p100 := flag.Int("p100", 16, "P100 count")
	t4 := flag.Int("t4", 16, "T4 count")
	teams := flag.Int("teams", 4, "team count for -mode tenants")
	strategy := flag.String("strategy", "bestfit", "bin-packing for -mode tenants: bestfit, firstfit, worstfit")
	nodeGPUs := flag.Int("node-gpus", 8, "GPUs per node for -mode tenants")
	ticks := flag.Int("ticks", 500, "10s simulation ticks for -mode tenants")
	showLog := flag.Int("show-log", 12, "decision-log lines to print for -mode tenants")
	flag.Parse()

	inv := sched.Resources{device.V100: *v100, device.P100: *p100, device.T4: *t4}

	if *mode == "tenants" {
		runTenants(inv, *teams, *strategy, *nodeGPUs, *jobs, *gap, *seed, *ticks, *showLog)
		return
	}

	tr := workload.Generate(*jobs, *gap, *seed)
	run := func(m cluster.Mode) cluster.Result {
		r := cluster.Simulate(cluster.Config{Mode: m, Inventory: inv}, tr)
		fmt.Printf("%-16s avgJCT %9.0fs  queue %9.0fs  makespan %9.0fs  finished %d/%d\n",
			r.Mode, r.AvgJCT, r.AvgQueue, r.Makespan, r.Finished, *jobs)
		return r
	}
	switch *mode {
	case "yarn":
		run(cluster.YARNCS)
	case "homo":
		run(cluster.EasyScaleHomo)
	case "heter":
		run(cluster.EasyScaleHeter)
	case "compare":
		y := run(cluster.YARNCS)
		h := run(cluster.EasyScaleHomo)
		x := run(cluster.EasyScaleHeter)
		if y.Finished == 0 || h.Finished == 0 || x.Finished == 0 {
			fmt.Println("gains vs YARN-CS: n/a (a policy finished no job)")
			break
		}
		fmt.Printf("gains vs YARN-CS: homo %.1fx JCT / %.1fx makespan; heter %.1fx / %.1fx\n",
			y.AvgJCT/h.AvgJCT, y.Makespan/h.Makespan, y.AvgJCT/x.AvgJCT, y.Makespan/x.Makespan)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// runTenants splits the inventory into equal per-team budget envelopes,
// replays a multi-team trace through the control plane twice — strict
// envelopes vs cross-team borrowing — and prints both reports.
func runTenants(inv sched.Resources, nTeams int, strategyName string, nodeGPUs, jobs int, gap float64, seed uint64, ticks, showLog int) {
	strat, ok := controlplane.StrategyByName(strategyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown strategy %q (want bestfit, firstfit, or worstfit)\n", strategyName)
		os.Exit(2)
	}
	if nTeams < 1 {
		nTeams = 1
	}
	names := make([]string, nTeams)
	cfgs := make([]controlplane.TeamConfig, nTeams)
	for i := range names {
		names[i] = fmt.Sprintf("team-%d", i+1)
		quota := sched.Resources{}
		for _, t := range device.AllTypes() {
			n := inv[t] / nTeams
			if i < inv[t]%nTeams {
				n++
			}
			if n > 0 {
				quota[t] = n
			}
		}
		cfgs[i] = controlplane.TeamConfig{Name: names[i], Quota: quota}
	}
	trace := workload.GenerateTenants(jobs, names, gap, seed)
	run := func(borrow bool) controlplane.Report {
		p := controlplane.New(controlplane.Config{
			Inventory: inv, Teams: cfgs, AllowBorrowing: borrow,
			Strategy: strat, NodeGPUs: nodeGPUs,
		})
		next := 0
		for tick := 0; tick < ticks; tick++ {
			now := float64(tick) * 10
			for next < len(trace) && trace[next].ArrivalSec <= now {
				p.Submit(trace[next])
				next++
			}
			p.Tick(now)
		}
		return p.Report()
	}
	strict := run(false)
	borrow := run(true)

	fmt.Printf("multi-tenant control plane: %d GPUs, %d teams, %d jobs, strategy %s\n",
		inv.Total(), nTeams, jobs, strict.Strategy)
	fmt.Printf("%-18s %12s %12s\n", "", "strict", "borrowing")
	fmt.Printf("%-18s %11.1f%% %11.1f%%\n", "avg utilization", strict.Utilization*100, borrow.Utilization*100)
	fmt.Printf("%-18s %12d %12d\n", "jobs admitted", strict.Admitted, borrow.Admitted)
	fmt.Printf("%-18s %12d %12d\n", "jobs finished", strict.Finished, borrow.Finished)
	fmt.Printf("%-18s %12d %12d\n", "leases minted", strict.LeasesMinted, borrow.LeasesMinted)
	fmt.Printf("%-18s %12d %12d\n", "open reservations", strict.ReservationsOpen, borrow.ReservationsOpen)
	fmt.Printf("%-18s %12d %12d\n", "borrows", strict.Borrows, borrow.Borrows)
	fmt.Printf("%-18s %12d %12d\n", "reclaims", strict.Reclaims, borrow.Reclaims)

	fmt.Printf("\nper-team envelopes (borrowing run, t=%.0fs):\n", borrow.NowSec)
	for _, tr := range borrow.Teams {
		fmt.Printf("  %-8s quota %-24s inUse %-24s lent %-16s borrowed %s\n",
			tr.Name, tr.Quota, tr.InUse, tr.Lent, tr.Borrowed)
	}

	fmt.Printf("\nfragmentation (borrowing run):\n")
	for _, f := range borrow.Frag {
		fmt.Printf("  %-5s nodes %3d (full %d, partial %d, empty %d)  free %d (%d stranded in partial, ratio %.2f)  consolidation moves %d\n",
			f.Type, f.Nodes, f.FullNodes, f.PartialNodes, f.EmptyNodes,
			f.FreeGPUs, f.FreeInPartial, f.FragRatio, f.ConsolidationMoves)
	}

	if showLog > 0 && len(borrow.Log) > 0 {
		n := showLog
		if n > len(borrow.Log) {
			n = len(borrow.Log)
		}
		fmt.Printf("\nlast %d decision-log entries (borrowing run):\n", n)
		for _, line := range borrow.Log[len(borrow.Log)-n:] {
			fmt.Printf("  %s\n", line)
		}
	}
}
