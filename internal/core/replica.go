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
// scratch scope one EST's local step borrows from. params are the
// network's Params() as its build handed them out, and state its
// StateTensors(), computed once. The weights are not owned: every replica's
// Parameter.Value is replica 0's tensor — one set of weights and one
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
	// batch is the shape of one EST's input, [BatchPerEST, item...], and
	// labels its label buffer: localStep draws the input from ctx.Scratch.
	batch  []int
	labels []int
}

func newReplica(net nn.Layer, params []*nn.Parameter, loss models.LossFn, batch []int, scratch *pool.Scope) *replica {
	r := &replica{net: net, loss: loss, params: params, batch: batch, labels: make([]int, batch[0])}
	r.ctx = nn.Context{Training: true, Scratch: scratch}
	if st, ok := net.(nn.Stateful); ok {
		r.state = st.StateTensors()
	}
	return r
}

// growReplicas makes sure replicas[0:n] exist. A new replica is the
// workload's network built again without its datasets, on replica 0's
// weights; whatever its state buffers were initialized to is overwritten by
// the first EST switched into it.
//
// Replica 0 borrows its scratch from the arena and hands it back there, where
// the next job or a distributed worker's successor finds it; it is the only
// replica a one-GPU job or a distributed worker has. The replicas grown here
// exist to compute beside it, and their scopes keep what a local step
// released for the next: with one arena for all, a phase preempted while its
// activations were out made the other draw a second set, so what a fanned-out
// step allocated hung on how the phases interleaved on the Ps. Now only
// replica 0 draws activations from the arena, the same every step.
func (j *Job) growReplicas(n int) error {
	for len(j.replicas) < n {
		net, params, loss, err := models.BuildNet(j.Workload.Name, nil, j.replicas[0].params)
		if err != nil {
			return err
		}
		j.replicas = append(j.replicas, newReplica(net, params, loss, j.replicas[0].batch, pool.NewKeepingScope()))
	}
	return nil
}

// runLocalPhases runs every worker's local phase of the current global step,
// worker wi on replica wi, on min(kernels.Parallelism(), GPUs) goroutines —
// the caller being one of them, so a width of 1 spawns nothing. Worker wi
// always belongs to goroutine wi mod width, and every result lands in a slot
// indexed by virtual rank (lastLosses, estTimes, est.Gradients), so neither
// the width nor which GPU finishes first can reach the bits: the reduce that
// follows the join reads the slots in constant rank order. Every goroutine
// has returned before runLocalPhases does.
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
		f := j.fanOut(n, width)
		f.wg.Add(width - 1)
		for g := 1; g < width; g++ {
			go f.body[g]()
		}
		f.share(0)
		f.wg.Wait()
		for wi, p := range f.panics {
			if p != nil {
				clear(f.panics[wi:])
				panic(p)
			}
		}
	}
	j.obs.runSpan(obs.CatStep, "core.local-phases", t0, int64(n), int64(width))
	return nil
}

// fanOut is what a fanned-out step runs on, built once per job, GPU count
// and width, so that a step only starts its goroutines: body[g] runs
// goroutine g's share and signals wg, and panics[wi] holds what worker wi's
// local phase raised.
type fanOut struct {
	j        *Job
	n, width int
	wg       sync.WaitGroup
	at       []int // at[g] is the worker goroutine g is running
	panics   []any
	body     []func()
}

// fanOut returns the job's fan-out for n GPUs at width, building it when the
// placement or the width changed, or when it belongs to another Job value
// (Scale overwrites *j), whose replicas its bodies would run.
func (j *Job) fanOut(n, width int) *fanOut {
	if f := j.fan; f != nil && f.j == j && f.n == n && f.width == width {
		return f
	}
	f := &fanOut{j: j, n: n, width: width, at: make([]int, width), panics: make([]any, n), body: make([]func(), width)}
	for g := range f.body {
		f.body[g] = func() {
			defer f.wg.Done()
			f.share(g)
		}
	}
	j.fan = f
	return f
}

// share runs goroutine g's workers, g, g+width, …, in order, and stops at
// the first that panics.
//
//easyscale:hotpath
func (f *fanOut) share(g int) {
	defer f.recover(g)
	for wi := g; wi < f.n; wi += f.width {
		f.at[g] = wi
		f.j.localPhase(wi, f.j.replicas[wi])
	}
}

// recover records a panic of goroutine g's current worker.
func (f *fanOut) recover(g int) {
	if p := recover(); p != nil {
		f.panics[f.at[g]] = p
	}
}
