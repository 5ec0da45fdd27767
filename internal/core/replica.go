package core

import (
	"sync"

	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// replica is what one simulated GPU owns of the model: a network of its own
// (layer caches, gradient accumulators, and the implicit-state buffers EST
// contexts switch in and out of), its loss, and the layer context whose
// scratch scope one EST's local step borrows from. params and state are the
// network's Params() and StateTensors(), computed once. The weights are not
// owned: every replica's Parameter.Value is replica 0's tensor — one set of weights and one
// optimizer, read-only while local phases run and updated once after the
// reduce, which is also what perDeviceMB charges each GPU for.
type replica struct {
	net    nn.Layer
	loss   models.LossFn
	params []*nn.Parameter
	state  []*tensor.Tensor
	// ctx is the context of the replica's local steps: one replica runs on
	// one goroutine, so localStep refreshes its device and RNG per EST.
	ctx nn.Context
}

func newReplica(net nn.Layer, loss models.LossFn) *replica {
	r := &replica{net: net, loss: loss, params: net.Params()}
	r.ctx = nn.Context{Training: true, Scratch: pool.NewScope()}
	if st, ok := net.(nn.Stateful); ok {
		r.state = st.StateTensors()
	}
	return r
}

// growReplicas makes sure replicas[0:n] exist. A new replica is the
// workload's network built again without its datasets, its weights then
// aliased to replica 0's; whatever its own buffers were initialized to is
// overwritten by the first EST switched into it.
func (j *Job) growReplicas(n int) error {
	for len(j.replicas) < n {
		net, loss, err := models.BuildNet(j.Workload.Name, j.Cfg.Seed)
		if err != nil {
			return err
		}
		r := newReplica(net, loss)
		for i, p := range r.params {
			p.Value = j.replicas[0].params[i].Value
		}
		j.replicas = append(j.replicas, r)
	}
	return nil
}

// runLocalPhases runs every worker's local phase of the current global step,
// worker wi on replica wi, on min(kernels.Parallelism(), GPUs) goroutines —
// the caller being one of them, so a width of 1 spawns nothing. Worker wi
// always belongs to goroutine wi mod width, and every result lands in a slot
// indexed by virtual rank (lastLosses, estTimes, est.Gradients), so neither
// the width nor which GPU finishes first can reach the bits: the reduce that
// follows the join reads the slots in constant rank order.
//
// A panic inside a local phase is carried back to the caller: each goroutine
// recovers, and the lowest worker index's value is re-raised after the join.
func (j *Job) runLocalPhases() error {
	n := len(j.placement.Assignment)
	if err := j.growReplicas(n); err != nil {
		return err
	}
	width := min(kernels.Parallelism(), n)
	t0 := j.obs.now()
	if width <= 1 {
		for wi := 0; wi < n; wi++ {
			j.localPhase(wi, j.replicas[wi])
		}
	} else {
		panics := make([]any, n)
		share := func(g int) {
			wi := g
			defer func() {
				if p := recover(); p != nil {
					panics[wi] = p
				}
			}()
			for ; wi < n; wi += width {
				j.localPhase(wi, j.replicas[wi])
			}
		}
		var wg sync.WaitGroup
		wg.Add(width - 1)
		for g := 1; g < width; g++ {
			go func(g int) {
				defer wg.Done()
				share(g)
			}(g)
		}
		share(0)
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	j.obs.runSpan(obs.CatStep, "core.local-phases", t0, int64(n), int64(width))
	return nil
}
