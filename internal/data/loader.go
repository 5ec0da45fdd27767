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
// on-demand checkpoint can capture exactly the not-yet-consumed work.
// StreamState returns, per virtual worker, the state as of the first pending
// batch (or the live state when nothing is pending): restoring it and
// re-materializing reproduces the same batches bitwise.
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

	// virtual worker streams: [world][K], reseeded in place every epoch
	streams [][]rng.Stream
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
	w := sampler.World
	l := &Loader{DS: ds, Sampler: sampler, WorkersPerEST: workersPerEST, Seed: seed,
		streams: make([][]rng.Stream, w), pending: make([][]*prepared, w), nextStep: make([]int, w)}
	for r := range l.streams {
		l.streams[r] = make([]rng.Stream, workersPerEST)
	}
	l.SetEpoch(0)
	return l
}

// SetEpoch reseeds all virtual worker streams for the epoch and resets the
// consumption cursors, matching per-epoch DataLoader worker reseeding. It
// also primes the sampler's epoch permutation, so every later Indices call
// of the epoch is a pure read. Stream j of EST r is named
// "dw-e<epoch>-r<r>-j<j>"; the name is hashed piece by piece, and every
// stream is reseeded in place.
func (l *Loader) SetEpoch(epoch int) {
	l.reset(epoch)
	dw := rng.NameOf("dw-e").Int(epoch).Str("-r")
	for r, row := range l.streams {
		wr := dw.Int(r).Str("-j")
		for j := range row {
			row[j] = wr.Int(j).Stream(l.Seed)
		}
	}
	clear(l.nextStep)
}

// reset installs epoch and empties the queuing buffer.
func (l *Loader) reset(epoch int) {
	l.epoch = epoch
	l.Sampler.Prime(epoch)
	for r, q := range l.pending {
		clear(q)
		l.pending[r] = q[:0]
	}
}

func (l *Loader) worker(step int) int { return step % l.WorkersPerEST }

// materializeInto fills x and labels with the batch for (step, rank),
// advancing the owning virtual worker stream.
//
//easyscale:hotpath
func (l *Loader) materializeInto(x *tensor.Tensor, labels []int, step, rank int) {
	MaterializeInto(x, labels, l.DS, l.Sampler.Indices(l.epoch, step, rank), &l.streams[rank][l.worker(step)])
}

// newBatch allocates a batch and its labels for one EST.
func (l *Loader) newBatch() (*tensor.Tensor, []int) {
	var buf [4]int
	return tensor.New(append(append(buf[:0], l.Sampler.Batch), l.DS.InputShape()...)...), make([]int, l.Sampler.Batch)
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
		p := &prepared{preState: l.streams[rank][l.worker(step)].State()}
		p.x, p.labels = l.newBatch()
		l.materializeInto(p.x, p.labels, step, rank)
		l.pending[rank] = append(l.pending[rank], p)
	}
}

// Batch returns the mini-batch of EST `rank` at `step` in a new tensor and
// label slice: BatchInto into memory of its own.
func (l *Loader) Batch(step, rank int) (*tensor.Tensor, []int) {
	x, labels := l.newBatch()
	l.BatchInto(x, labels, step, rank)
	return x, labels
}

// BatchInto fills x (of shape [Batch, InputShape...]) and labels (of length
// Batch) with the mini-batch of EST `rank` at `step`, copying a prefetched
// batch or materializing it in place. ESTs consume their steps strictly in
// order. Safe for concurrent calls on distinct ranks.
//
//easyscale:hotpath
func (l *Loader) BatchInto(x *tensor.Tensor, labels []int, step, rank int) {
	if step != l.nextStep[rank] {
		panic(fmt.Sprintf("data: EST %d consuming step %d, expected %d (in-order consumption)", rank, step, l.nextStep[rank]))
	}
	if len(l.pending[rank]) > 0 {
		p := l.popPending(rank)
		if x.Size() != p.x.Size() || len(labels) != len(p.labels) {
			panic("data: BatchInto destination does not fit the batch")
		}
		copy(x.Data, p.x.Data)
		copy(labels, p.labels)
	} else {
		l.materializeInto(x, labels, step, rank)
	}
	l.nextStep[rank]++
}

// popPending dequeues EST rank's oldest prefetched batch.
//
//easyscale:hotpath
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
	if l.nextStep[rank] >= step {
		return
	}
	x, labels := l.newBatch()
	for l.nextStep[rank] < step {
		l.BatchInto(x, labels, l.nextStep[rank], rank)
	}
}

// State is the checkpointable loader state: the paper's "extra states" —
// epoch, per-EST consumption cursor, and the virtual worker RNG states rolled
// back to the first pending (prefetched, unconsumed) batch. A checkpoint reads
// it off the loader field by field, with Epoch, Cursor and StreamState, and
// Restore installs it.
type State struct {
	Epoch    int
	NextStep []int
	// Streams[r][j] is the RNG state of virtual worker j of EST r.
	Streams [][]rng.State
}

// Epoch returns State's Epoch: the epoch the loader draws from.
func (l *Loader) Epoch() int { return l.epoch }

// Cursor returns State's NextStep[rank]: the next step EST rank consumes.
func (l *Loader) Cursor(rank int) int { return l.nextStep[rank] }

// StreamState returns State's Streams[rank][j]: the state of virtual worker j
// of EST rank before the first pending batch it owns, or its live state when
// it owns none, so that a restore re-produces the pending batches bitwise.
func (l *Loader) StreamState(rank, j int) rng.State {
	// pending[rank][i] is step nextStep+i, so worker j's first is at the
	// least i ≥ 0 with nextStep+i ≡ j (mod K)
	k := l.WorkersPerEST
	if i := ((j-l.nextStep[rank])%k + k) % k; i < len(l.pending[rank]) {
		return l.pending[rank][i].preState
	}
	return l.streams[rank][j].State()
}

// Restore rebuilds loader position from a snapshot; pending prefetches are
// discarded (they will be re-materialized from the restored states).
func (l *Loader) Restore(st State) {
	if len(st.NextStep) != l.Sampler.World || len(st.Streams) != l.Sampler.World {
		panic("data: Restore with mismatched world size")
	}
	for r := range st.Streams {
		if len(st.Streams[r]) != l.WorkersPerEST {
			panic("data: Restore with mismatched WorkersPerEST")
		}
	}
	l.reset(st.Epoch)
	copy(l.nextStep, st.NextStep)
	for r, row := range st.Streams {
		for j, s := range row {
			l.streams[r][j].SetState(s)
		}
	}
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
