// Cluster co-location: replay the production deployment of §5.3 — elastic
// EasyScale training jobs opportunistically soaking the idle GPUs of a
// 3,000-GPU online-serving cluster, scaling in within seconds when serving
// traffic returns.
package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/workload"
)

func main() {
	const totalGPUs = 3000
	load := workload.ServingLoad(2*1440, totalGPUs, 42)
	st := workload.Stats(load)
	fmt.Printf("serving fleet: %d GPUs, diurnal load min %d / max %d (gap %d — Figure 1)\n\n",
		totalGPUs, st.Min, st.Max, st.Gap)

	day1 := cluster.SimulateColocation(totalGPUs, load[:1440], false)
	day2 := cluster.SimulateColocation(totalGPUs, load[1440:], true)

	fmt.Println("                          day-1 (before)   day-2 (EasyScale)")
	fmt.Printf("GPU allocation ratio      %13.1f%%  %16.1f%%\n", day1.AvgAllocRatio*100, day2.AvgAllocRatio*100)
	fmt.Printf("avg SM utilization        %13.1f%%  %16.1f%%\n", day1.AvgSMUtil*100, day2.AvgSMUtil*100)
	fmt.Printf("avg elastic GPUs          %14.0f  %17.0f\n", day1.AvgElasticGPUs, day2.AvgElasticGPUs)
	fmt.Printf("preemptions (scale-ins)   %14d  %17d\n", day1.Preemptions, day2.Preemptions)
	fmt.Printf("max refill after release  %14s  %16dm\n", "-", day2.MaxRefillMin)
	fmt.Printf("\nutilization gain: +%.1f%% relative (paper: +62.1%%)\n",
		(day2.AvgSMUtil-day1.AvgSMUtil)/day1.AvgSMUtil*100)

	// hourly view of day 2
	fmt.Println("\nday-2 hourly (serving / elastic GPUs):")
	for h := 0; h < 24; h += 3 {
		s := day2.Samples[h*60]
		fmt.Printf("  %02d:00  serving %4d  elastic %4d  alloc %5.1f%%  util %5.1f%%\n",
			h, s.ServingGPUs, s.ElasticGPUs, s.AllocRatio*100, s.SMUtil*100)
	}
}
