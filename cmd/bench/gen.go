package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/device"
	"repro/internal/workload"
)

// The benchmark owns its input generators, so a later change to the
// program's own generators (serve.LoadGen, workload.GenerateTenants) cannot
// move the inputs a measurement is taken on.

// splitmix is the splitmix64 generator: one 64-bit state, seeded from -seed.
type splitmix struct{ s uint64 }

// newSplitmix derives an independent stream for one purpose from the run seed.
func newSplitmix(seed uint64, purpose string) *splitmix {
	s := seed
	for _, c := range []byte(purpose) {
		s = (s ^ uint64(c)) * 0x100000001b3
	}
	g := &splitmix{s: s}
	g.next()
	return g
}

func (g *splitmix) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *splitmix) intn(n int) int { return int(g.next() % uint64(n)) }

// shuffle is a Fisher-Yates shuffle of n items.
func (g *splitmix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, g.intn(i+1))
	}
}

// tableModel freezes what the trace needs to know about a Table-1 model: its
// single-V100 step rate (global steps per second) and whether it is
// restricted to one GPU type. Frozen here so that a re-calibration of the
// model zoo does not change the trace the scheduler is measured on.
type tableModel struct {
	name     string
	stepRate float64
	homoOnly bool
}

var tableModels = []tableModel{
	{"bert", 137.375, false},
	{"electra", 228.95833333333334, false},
	{"neumf", 34343.75, false},
	{"resnet50", 57.239583333333336, true},
	{"shufflenetv2", 1526.388888888889, true},
	{"swintransformer", 52.83653846153846, false},
	{"vgg19", 11.447916666666666, true},
	{"yolov3", 34.34375, true},
}

var (
	traceSizes     = []int{1, 2, 4, 8, 16}
	traceSizeProbs = []float64{0.40, 0.20, 0.17, 0.13, 0.10}
	planeTeams     = []string{"team-1", "team-2", "team-3", "team-4"}
)

const (
	traceMeanGapSec   = 5.0
	traceMedianWorkS  = 2400.0 // GPU-seconds, single-V100 equivalent
	traceMaxWorkS     = 6 * 3600.0
	traceGangFloorPct = 0.25
)

// tenantPopulation is the fixed population of n jobs the trace is drawn
// from. Every attribute is stratified — the 1/2/4/8/16-GPU mix in exact
// proportion, work at the n quantiles of the log-normal, Table-1 models,
// teams and priorities in equal shares, requested types 70/20/10, a quarter
// carrying a hard gang floor — and the attributes are paired by a generator
// with a constant seed. The population therefore does not depend on -seed:
// two seeds schedule the same jobs, so they measure the same amount of work.
func tenantPopulation(n int) []workload.JobSpec {
	g := newSplitmix(0, "tenant-population")
	column := func(value func(i int) int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = value(i)
		}
		g.shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// share maps position i of n onto the index of the share it falls in
	share := func(probs []float64) func(int) int {
		return func(i int) int {
			u, acc := (float64(i)+0.5)/float64(n), 0.0
			for k, p := range probs {
				if acc += p; u < acc {
					return k
				}
			}
			return len(probs) - 1
		}
	}
	sizes := column(share(traceSizeProbs))
	quantiles := column(func(i int) int { return i })
	modelIdx := column(func(i int) int { return i % len(tableModels) })
	types := column(share([]float64{0.70, 0.20, 0.10}))
	teams := column(func(i int) int { return i % len(planeTeams) })
	prios := column(func(i int) int { return i % 3 })
	gangs := column(share([]float64{traceGangFloorPct, 1 - traceGangFloorPct}))

	jobs := make([]workload.JobSpec, n)
	for i := range jobs {
		m := tableModels[modelIdx[i]]
		size := traceSizes[sizes[i]]
		z := invNorm((float64(quantiles[i]) + 0.5) / float64(n))
		work := math.Min(traceMedianWorkS*math.Exp(z), traceMaxWorkS)
		jobs[i] = workload.JobSpec{
			Model:           m.name,
			MaxP:            size,
			HomogeneousOnly: m.homoOnly,
			WorkSteps:       work * float64(size) * m.stepRate,
			RequestedType:   []device.Type{device.V100, device.P100, device.T4}[types[i]],
			Team:            planeTeams[teams[i]],
			Priority:        prios[i],
		}
		if gangs[i] == 0 {
			jobs[i].MinGPUs = size
		}
	}
	return jobs
}

// traceEpoch is how many consecutive arrivals form one epoch of the trace.
// The population is dealt into epochs by demand rank, so every epoch carries
// the same mix of small and large jobs; the seed shuffles within an epoch and
// never across. Two seeds therefore load the fleet along the same curve and
// differ in the order the scheduler meets the jobs, not in how much it has to
// do: across seeds allocations per tick stay within a percent, where a free
// shuffle of the whole trace moved them by three.
const traceEpoch = 25

// demand is the GPU-seconds a job asks for (its V100 runtime times its gang
// size), the quantity epochs are balanced on.
func demand(j workload.JobSpec) float64 {
	for _, m := range tableModels {
		if m.name == j.Model {
			return j.WorkSteps / m.stepRate
		}
	}
	return 0
}

// tenantTrace orders the population into a trace: jobs and inter-arrival gaps
// (the n quantiles of the exponential distribution) are each dealt into
// epochs and shuffled within their epoch by the seed. A pure function of
// (n, seed).
func tenantTrace(n int, seed uint64) []workload.JobSpec {
	g := newSplitmix(seed, "tenant-trace")
	pop := tenantPopulation(n)
	sort.SliceStable(pop, func(a, b int) bool { return demand(pop[a]) < demand(pop[b]) })
	gapQ := make([]float64, n)
	for i := range gapQ {
		gapQ[i] = -traceMeanGapSec * math.Log(1-(float64(i)+0.5)/float64(n))
	}
	epochs := (n + traceEpoch - 1) / traceEpoch
	jobs := make([]workload.JobSpec, 0, n)
	gaps := make([]float64, 0, n)
	for e := 0; e < epochs; e++ {
		from := len(jobs)
		for r := e; r < n; r += epochs {
			jobs = append(jobs, pop[r])
			gaps = append(gaps, gapQ[r])
		}
		ej, eg := jobs[from:], gaps[from:]
		g.shuffle(len(ej), func(a, b int) { ej[a], ej[b] = ej[b], ej[a] })
		g.shuffle(len(eg), func(a, b int) { eg[a], eg[b] = eg[b], eg[a] })
	}
	now := 0.0
	for i := range jobs {
		now += gaps[i]
		jobs[i].ID = fmt.Sprintf("job-%04d", i)
		jobs[i].ArrivalSec = now
	}
	return jobs
}

// invNorm is the standard normal quantile function (Acklam's rational
// approximation, relative error below 1.2e-9).
func invNorm(p float64) float64 {
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const lo = 0.02425
	switch {
	case p < lo:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) / ((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-lo:
		return -invNorm(1 - p)
	}
	q := p - 0.5
	r := q * q
	return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q / (((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
}
