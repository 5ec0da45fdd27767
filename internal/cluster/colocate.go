package cluster

import "repro/internal/workload"

// The production co-location experiment (§5.3, Figure 16): inference serving
// jobs are production priority with guaranteed quota; EasyScale jobs are
// non-production and opportunistically fill the idle GPUs, scaling in within
// seconds when serving demand returns and refilling within minutes after it
// leaves.

// The production deployment's tuning. A GPU allocated to serving (bursty,
// low duty cycle) averages servingUtil of its SMs, one allocated to training
// trainingUtil. Elastic jobs may use elasticHeadroom of the idle GPUs; their
// aggregate demand is capped at 1/elasticDemandDiv of the fleet (the business
// only submits so much opportunistic training); they (re)occupy at most
// 1/refillDiv of the fleet per minute (job start and checkpoint restore
// costs: a full refill within ~5 minutes); and a scale-in below
// 1/deadbandDiv of the fleet is suppressed (jobs hold their grant through
// load wiggles).
const (
	servingUtil      = 0.50
	trainingUtil     = 0.92
	elasticHeadroom  = 0.92
	elasticDemandDiv = 5
	refillDiv        = 5
	deadbandDiv      = 200
)

// MinuteSample is one minute of the co-location timeline.
type MinuteSample struct {
	Minute       int
	ServingGPUs  int
	ElasticGPUs  int
	AllocRatio   float64 // (serving+elastic)/total
	SMUtil       float64 // fleet-average SM utilization
	ScaleInEvent bool    // elastic jobs preempted this minute
}

// ColocationResult summarizes a day (or longer) of co-location.
type ColocationResult struct {
	Samples        []MinuteSample
	AvgAllocRatio  float64
	AvgSMUtil      float64
	AvgElasticGPUs float64
	Preemptions    int
	// MaxRefillMin is the longest observed time to re-occupy the idle pool
	// after serving load dropped.
	MaxRefillMin int
}

// SimulateColocation replays a serving-load series on a fleet of totalGPUs
// with or without EasyScale filling the idle capacity.
func SimulateColocation(totalGPUs int, serving []int, withEasyScale bool) ColocationResult {
	res := ColocationResult{}
	elastic := 0
	refillStart := -1
	for m, sv := range serving {
		if sv > totalGPUs {
			sv = totalGPUs
		}
		idle := totalGPUs - sv
		target := 0
		if withEasyScale {
			target = int(float64(idle) * elasticHeadroom)
			if demand := totalGPUs / elasticDemandDiv; demand > 0 && target > demand {
				target = demand
			}
		}
		sample := MinuteSample{Minute: m, ServingGPUs: sv}
		switch {
		case elastic > target+totalGPUs/deadbandDiv:
			// serving demand returned: scale in within seconds (well inside
			// one one-minute sample)
			elastic = target
			sample.ScaleInEvent = true
			res.Preemptions++
			refillStart = -1
		case elastic < target:
			if refillStart < 0 {
				refillStart = m
			}
			elastic += totalGPUs / refillDiv
			if elastic >= target {
				elastic = target
				if d := m - refillStart + 1; d > res.MaxRefillMin {
					res.MaxRefillMin = d
				}
				refillStart = -1
			}
		default:
			refillStart = -1
		}
		sample.ElasticGPUs = elastic
		sample.AllocRatio = float64(sv+elastic) / float64(totalGPUs)
		sample.SMUtil = (float64(sv)*servingUtil + float64(elastic)*trainingUtil) / float64(totalGPUs)
		res.Samples = append(res.Samples, sample)
		res.AvgAllocRatio += sample.AllocRatio
		res.AvgSMUtil += sample.SMUtil
		res.AvgElasticGPUs += float64(elastic)
	}
	n := float64(len(res.Samples))
	if n > 0 {
		res.AvgAllocRatio /= n
		res.AvgSMUtil /= n
		res.AvgElasticGPUs /= n
	}
	return res
}

// TwoDayComparison runs day 1 without EasyScale and day 2 with it on the
// same diurnal pattern — the Figure 16 layout — and returns both results.
func TwoDayComparison(totalGPUs int, seed uint64) (day1, day2 ColocationResult) {
	load := workload.ServingLoad(2*1440, totalGPUs, seed)
	day1 = SimulateColocation(totalGPUs, load[:1440], false)
	day2 = SimulateColocation(totalGPUs, load[1440:], true)
	return day1, day2
}
