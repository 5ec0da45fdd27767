// Cluster co-location: replay the production deployment of §5.3 on the
// control plane — a serving team owns a 3,000-GPU fleet and holds its diurnal
// demand as 8-GPU gangs, and elastic EasyScale training jobs borrow the idle
// GPUs, preempted whenever a serving gang reclaims them. It exits non-zero
// unless day 2 allocates more than day 1, day 1 has no elastic GPUs, and
// every serving gang was admitted at once.
package main

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	const total, day = 3000, 1440 // GPUs, minutes
	cfg := cluster.Config{Mode: cluster.Colocation, Inventory: sched.Resources{device.V100: total}}
	load := workload.ServingLoad(2*day, total, 42)
	day1 := cluster.Simulate(cfg, workload.ServingGangs(load[:day]))
	day2 := cluster.Simulate(cfg, append(workload.ServingGangs(load[day:]), workload.GenerateProduction(2000, 60*day/2000.0, 42)...))
	alloc1, _, elastic1 := cluster.Means(day1.Timeline[:6*day], total)
	alloc2, _, elastic2 := cluster.Means(day2.Timeline[:6*day], total)
	fmt.Printf("day 1 (serving only): allocation %.1f%%, elastic GPUs %.0f, preemptions %d, serving gangs waited %d\n",
		alloc1*100, elastic1, day1.Preemptions, day1.Waited)
	fmt.Printf("day 2 (with EasyScale): allocation %.1f%%, elastic GPUs %.0f, preemptions %d, serving gangs waited %d\n",
		alloc2*100, elastic2, day2.Preemptions, day2.Waited)
	if alloc2 <= alloc1 || elastic1 != 0 || day1.Waited+day2.Waited != 0 {
		fmt.Println("FAIL: want day-2 allocation above day 1, no elastic GPUs on day 1, and no serving gang waiting")
		os.Exit(1)
	}
}
