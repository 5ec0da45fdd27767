// Package sched implements the EasyScale scheduler (§3.4): the per-job
// companion module with its plan database and analytical waste/throughput
// model (Equations 1a–1d), the intra-job scheduler that maps ESTs onto the
// currently held GPUs and proposes scale-outs, and the inter-job cluster
// scheduler that greedily grants proposals by speedup-per-GPU.
package sched

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/device"
)

// Resources counts GPUs per type.
type Resources map[device.Type]int

// Clone deep-copies a resource vector.
func (r Resources) Clone() Resources {
	out := Resources{}
	for t, n := range r {
		if n != 0 {
			out[t] = n
		}
	}
	return out
}

// Total returns the GPU count.
func (r Resources) Total() int {
	n := 0
	for _, c := range r {
		n += c
	}
	return n
}

// Key renders a canonical string for use as a map key.
func (r Resources) Key() string {
	s := ""
	for _, t := range device.AllTypes() {
		if n := r[t]; n > 0 {
			s += fmt.Sprintf("%s:%d;", t, n)
		}
	}
	return s
}

// counts is the scheduler's internal form of Resources: a fixed per-type
// array, so it is a map key without rendering a string and copying it is a
// clone. Resources stays the exported type, converted at the boundary.
type counts [device.NumTypes]int

func countsOf(r Resources) counts {
	var c counts
	for t := range c {
		c[t] = r[device.Type(t)]
	}
	return c
}

func (c counts) resources() Resources {
	out := Resources{}
	for t, n := range c {
		if n != 0 {
			out[device.Type(t)] = n
		}
	}
	return out
}

func (c counts) total() int {
	n := 0
	for _, k := range c {
		n += k
	}
	return n
}

// Capability is the workload-specific compute capability C_i: mini-batches
// per second one EST achieves on one GPU of each type.
type Capability map[device.Type]float64

// Plan is one entry of the companion module's database: a GPU quantity per
// type, the EST-to-GPU mapping (A_i ESTs on each GPU of type i), and the
// model-estimated throughput.
type Plan struct {
	GPUs       Resources
	ESTsPerGPU map[device.Type]int
	NEST       int     // Σ N_i·A_i (≥ maxP, Eq. 1a)
	Overload   float64 // f_overload (Eq. 1b)
	Waste      float64 // Eq. 1c
	Throughput float64 // Eq. 1d, in mini-batches/sec aggregated
}

// Companion is the intra-job scheduler's standalone companion module: it
// owns the plan database and the performance model, initialized analytically
// (standing in for historical data) and refreshed when observed throughput
// deviates from the estimate.
type Companion struct {
	MaxP int
	Caps Capability

	plans map[counts]Plan
	// gen counts capability updates: whatever remembers an answer derived
	// from the performance model (IntraJob.Proposals) keys it on gen.
	gen uint64
}

// NewCompanion builds a companion module for a job with maxP ESTs. The
// companion owns its performance model: caps is copied, so feedback one job
// measures never reaches another job's companion or the caller's map.
func NewCompanion(maxP int, caps Capability) *Companion {
	if maxP <= 0 {
		panic("sched: maxP must be positive")
	}
	return &Companion{MaxP: maxP, Caps: maps.Clone(caps), plans: map[counts]Plan{}}
}

// assign computes the EST-to-GPU mapping for a resource vector by greedy
// load balancing: repeatedly give one more EST per GPU to the type whose
// per-EST slowdown (A_i+1)/C_i is smallest, until Σ N_i·A_i ≥ maxP — the
// quantum property (integer ESTs) over consecutive computing capabilities.
// ok is false when the vector holds no usable GPUs.
func (cp *Companion) assign(gpus counts) (a counts, nEST int, ok bool) {
	for nEST < cp.MaxP {
		best := -1
		bestCost := 0.0
		for t, n := range gpus {
			c := cp.Caps[device.Type(t)]
			if n == 0 || c <= 0 {
				continue
			}
			cost := float64(a[t]+1) / c
			if best < 0 || cost < bestCost {
				best, bestCost = t, cost
			}
		}
		if best < 0 {
			return a, 0, false
		}
		a[best]++
		nEST += gpus[best]
	}
	return a, nEST, true
}

// evaluate applies the waste model (Eq. 1a–1d) to a mapping.
func (cp *Companion) evaluate(gpus, a counts, nEST int) Plan {
	// fixed type order: the float max over a map range would let Go's
	// randomized iteration order pick between ±0-style ties run to run
	f := 0.0
	for t, ai := range a {
		if ai > 0 {
			if v := float64(ai) / cp.Caps[device.Type(t)]; v > f {
				f = v
			}
		}
	}
	sumCap := 0.0
	waste := 0.0
	for t, n := range gpus {
		if n == 0 {
			continue
		}
		c := cp.Caps[device.Type(t)]
		sumCap += float64(n) * c
		waste += float64(n) * (c - float64(a[t])/f)
	}
	waste += float64(nEST-cp.MaxP) / f
	return Plan{
		GPUs:       gpus.resources(),
		ESTsPerGPU: a.resources(),
		NEST:       nEST,
		Overload:   f,
		Waste:      waste,
		Throughput: sumCap - waste,
	}
}

// PlanFor returns the database plan for an exact resource vector, computing
// and memoizing it on first use. ok is false when the vector cannot host the
// job (no usable GPUs).
func (cp *Companion) PlanFor(gpus Resources) (Plan, bool) {
	return cp.planAt(countsOf(gpus))
}

// planAt is PlanFor on the internal vector: a database hit is one map probe
// on an integer key.
func (cp *Companion) planAt(gpus counts) (Plan, bool) {
	if p, ok := cp.plans[gpus]; ok {
		return p, true
	}
	if gpus.total() == 0 {
		return Plan{}, false
	}
	a, nEST, ok := cp.assign(gpus)
	if !ok {
		return Plan{}, false
	}
	p := cp.evaluate(gpus, a, nEST)
	cp.plans[gpus] = p
	return p, true
}

// UpdateCapability refreshes the performance model when the monitored
// throughput biases from the estimate, invalidating the plan database and
// every answer remembered from it.
func (cp *Companion) UpdateCapability(t device.Type, observed float64) {
	if observed <= 0 {
		return
	}
	cp.Caps[t] = observed
	cp.plans = map[counts]Plan{}
	cp.gen++
}

// sortTypesByCapability returns GPU types fastest-first for deterministic
// placement rendering.
func (cp *Companion) sortTypesByCapability() []device.Type {
	types := device.AllTypes()
	sort.SliceStable(types, func(i, j int) bool { return cp.Caps[types[i]] > cp.Caps[types[j]] })
	return types
}
