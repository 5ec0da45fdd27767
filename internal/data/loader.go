package data

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Loader is EasyScale's data loader with shared data workers (Figure 7).
//
// Numerically, augmentation randomness belongs to *virtual* data workers: EST
// rank r owns K = WorkersPerEST round-robin RNG streams (R r-j in the paper's
// notation), reseeded per epoch, and the j-th stream serves the steps with
// step % K == j. Because the virtual streams are tied to the logical training
// topology — never to the physical processes that happen to execute the
// pre-processing — any number of shared physical workers produces bitwise
// identical batches, which is what makes worker sharing safe.
//
// Operationally, batches may be prefetched ahead of training; the queuing
// buffer records each pending batch's pre-materialization RNG state so an
// on-demand checkpoint can capture exactly the not-yet-consumed work. State()
// returns, per virtual worker, the state as of the first pending batch (or
// the live state when nothing is pending): restoring it and re-materializing
// reproduces the same batches bitwise.
type Loader struct {
	DS            Dataset
	Sampler       *ElasticSampler
	WorkersPerEST int

	Seed  uint64
	epoch int

	// Everything below is indexed by EST rank first, and Batch touches only
	// its own rank's entries — so ESTs on different GPUs may draw their
	// batches concurrently (core.Job.RunStep does). Everything else on a
	// Loader wants the ranks quiescent.

	// virtual worker streams: [world][K]
	streams [][]*rng.Stream
	// queuing buffer: pending[r] holds EST r's prefetched, unconsumed
	// batches in step order, starting at nextStep[r]
	pending [][]*prepared
	// per-EST next step to consume (ESTs consume their own steps in order)
	nextStep []int
}

type prepared struct {
	x        *tensor.Tensor
	labels   []int
	preState rng.State // virtual worker state before materialization
}

// NewLoader constructs a loader. workersPerEST is the user's data-worker
// count per logical training worker (K).
func NewLoader(ds Dataset, sampler *ElasticSampler, workersPerEST int, seed uint64) *Loader {
	if workersPerEST <= 0 {
		panic("data: WorkersPerEST must be positive")
	}
	l := &Loader{DS: ds, Sampler: sampler, WorkersPerEST: workersPerEST, Seed: seed}
	l.SetEpoch(0)
	return l
}

// SetEpoch reseeds all virtual worker streams for the epoch and resets the
// consumption cursors, matching per-epoch DataLoader worker reseeding. It
// also primes the sampler's epoch permutation, so every later Indices call
// of the epoch is a pure read.
func (l *Loader) SetEpoch(epoch int) {
	l.epoch = epoch
	l.Sampler.Prime(epoch)
	w := l.Sampler.World
	l.streams = make([][]*rng.Stream, w)
	for r := 0; r < w; r++ {
		l.streams[r] = make([]*rng.Stream, l.WorkersPerEST)
		for j := 0; j < l.WorkersPerEST; j++ {
			l.streams[r][j] = rng.NewNamed(l.Seed, fmt.Sprintf("dw-e%d-r%d-j%d", epoch, r, j))
		}
	}
	l.pending = make([][]*prepared, w)
	l.nextStep = make([]int, w)
}

func (l *Loader) worker(step int) int { return step % l.WorkersPerEST }

// materialize produces the batch for (step, rank), advancing the owning
// virtual worker stream.
func (l *Loader) materialize(step, rank int) *prepared {
	s := l.streams[rank][l.worker(step)]
	pre := s.State()
	idx := l.Sampler.Indices(l.epoch, step, rank)
	x, labels := MaterializeBatch(l.DS, idx, s)
	return &prepared{x: x, labels: labels, preState: pre}
}

// Prefetch materializes batches for EST `rank` up to `ahead` steps beyond the
// consumption cursor, filling the queuing buffer — the asynchronous progress
// of data workers the paper describes.
func (l *Loader) Prefetch(rank, ahead int) {
	limit := l.nextStep[rank] + ahead
	if max := l.Sampler.StepsPerEpoch(); limit > max {
		limit = max
	}
	for step := l.nextStep[rank] + len(l.pending[rank]); step < limit; step++ {
		l.pending[rank] = append(l.pending[rank], l.materialize(step, rank))
	}
}

// Batch returns the mini-batch of EST `rank` at `step`. ESTs consume their
// steps strictly in order. Safe for concurrent calls on distinct ranks.
func (l *Loader) Batch(step, rank int) (*tensor.Tensor, []int) {
	if step != l.nextStep[rank] {
		panic(fmt.Sprintf("data: EST %d consuming step %d, expected %d (in-order consumption)", rank, step, l.nextStep[rank]))
	}
	var p *prepared
	if len(l.pending[rank]) > 0 {
		p = l.popPending(rank)
	} else {
		p = l.materialize(step, rank)
	}
	l.nextStep[rank]++
	return p.x, p.labels
}

// popPending dequeues EST rank's oldest prefetched batch.
func (l *Loader) popPending(rank int) *prepared {
	q := l.pending[rank]
	p := q[0]
	q[0] = nil
	l.pending[rank] = q[1:]
	return p
}

// AdvanceTo materializes-and-discards batches of `rank` until its cursor
// reaches `step`. Used by distributed workers to bring ESTs they do not host
// to the canonical position before checkpointing: materialization advances
// the virtual worker streams exactly as the hosting worker's did.
func (l *Loader) AdvanceTo(rank, step int) {
	for l.nextStep[rank] < step {
		l.Batch(l.nextStep[rank], rank)
	}
}

// State is the checkpointable loader state: the paper's "extra states" —
// epoch, per-EST consumption cursor, and the virtual worker RNG states rolled
// back to the first pending (prefetched, unconsumed) batch.
type State struct {
	Epoch    int
	NextStep []int
	// Streams[r][j] is the RNG state of virtual worker j of EST r.
	Streams [][]rng.State
}

// State snapshots the loader, honoring the queuing buffer: a pending batch's
// pre-materialization state supersedes the live stream state so that restore
// re-produces the pending batches bitwise.
func (l *Loader) State() State {
	st := State{Epoch: l.epoch, NextStep: append([]int(nil), l.nextStep...)}
	st.Streams = make([][]rng.State, len(l.streams))
	for r := range l.streams {
		st.Streams[r] = make([]rng.State, l.WorkersPerEST)
		for j := range l.streams[r] {
			st.Streams[r][j] = l.streams[r][j].State()
		}
		// The first pending step owned by each virtual worker carries the
		// state to roll back to.
		rolled := make([]bool, l.WorkersPerEST)
		for i, p := range l.pending[r] {
			if j := l.worker(l.nextStep[r] + i); !rolled[j] {
				st.Streams[r][j] = p.preState
				rolled[j] = true
			}
		}
	}
	return st
}

// Restore rebuilds loader position from a snapshot; pending prefetches are
// discarded (they will be re-materialized from the restored states).
func (l *Loader) Restore(st State) {
	if len(st.NextStep) != l.Sampler.World || len(st.Streams) != l.Sampler.World {
		panic("data: Restore with mismatched world size")
	}
	l.epoch = st.Epoch
	l.Sampler.Prime(st.Epoch)
	l.nextStep = append([]int(nil), st.NextStep...)
	l.streams = make([][]*rng.Stream, len(st.Streams))
	for r := range st.Streams {
		if len(st.Streams[r]) != l.WorkersPerEST {
			panic("data: Restore with mismatched WorkersPerEST")
		}
		l.streams[r] = make([]*rng.Stream, l.WorkersPerEST)
		for j := range st.Streams[r] {
			l.streams[r][j] = rng.Restore(st.Streams[r][j])
		}
	}
	l.pending = make([][]*prepared, len(st.Streams))
}

// Worker-pool launch cost model for the data-worker sharing experiment
// (§5.1.2): process fork/import overhead per data worker plus a fixed runtime
// initialization.
const (
	workerLaunchBase = 150 * time.Millisecond
	workerLaunchEach = 40 * time.Millisecond
)

// FirstBatchLatency models the time before the first mini-batch is available
// when `numPhysicalWorkers` data-worker processes must be launched. Sharing
// workers across ESTs shrinks this count (e.g. 32 → 4), which is the −67.1%
// first-mini-batch improvement the paper reports.
func FirstBatchLatency(numPhysicalWorkers int) time.Duration {
	if numPhysicalWorkers < 0 {
		panic("data: negative worker count")
	}
	return workerLaunchBase + time.Duration(numPhysicalWorkers)*workerLaunchEach
}
