package data

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// AsyncLoader executes the Figure 7 data-worker pool for real: a fixed set
// of physical worker goroutines (shared across all ESTs) race to pre-process
// upcoming mini-batches into the queuing buffer, ahead of training.
//
// Concurrency never touches the numerics: each EST's virtual worker streams
// are serialized by a per-rank lock, batches enter the queuing buffer with
// their pre-materialization states recorded (so Loader.State/Restore remain
// bitwise-exact around in-flight prefetch), and the physical pool size only
// decides when batches are produced, never what they contain. Tests assert
// bitwise equality against fully synchronous loading under the race
// detector.
type AsyncLoader struct {
	l     *Loader
	depth int

	rankMu []sync.Mutex // serializes each EST's virtual streams
	bufMu  sync.Mutex   // guards l.pending + produced cursors + conds
	cond   *sync.Cond   // signals consumers when a batch lands
	// produced[r] is the next step the pool will materialize for EST r.
	produced []int

	tasks chan int // rank tokens: "EST r may have prefetchable work"
	wg    sync.WaitGroup
	quit  chan struct{}
}

// NewAsyncLoader starts `physicalWorkers` shared data workers prefetching up
// to `depth` steps ahead per EST. Close must be called before snapshotting
// or restoring the underlying Loader.
func NewAsyncLoader(l *Loader, physicalWorkers, depth int) *AsyncLoader {
	if physicalWorkers <= 0 || depth <= 0 {
		panic("data: AsyncLoader needs positive workers and depth")
	}
	a := &AsyncLoader{
		l:        l,
		depth:    depth,
		rankMu:   make([]sync.Mutex, l.Sampler.World),
		produced: make([]int, l.Sampler.World),
		tasks:    make(chan int, l.Sampler.World*(depth+1)),
		quit:     make(chan struct{}),
	}
	a.cond = sync.NewCond(&a.bufMu)
	for r := range a.produced {
		a.produced[r] = l.nextStep[r] + len(l.pending[r])
	}

	for w := 0; w < physicalWorkers; w++ {
		a.wg.Add(1)
		go a.worker()
	}
	for r := 0; r < l.Sampler.World; r++ {
		a.kick(r)
	}
	return a
}

// kick enqueues a prefetch token for EST r (non-blocking; the channel is
// sized to hold every useful token).
func (a *AsyncLoader) kick(r int) {
	select {
	case a.tasks <- r:
	case <-a.quit:
	default:
	}
}

// worker is one shared physical data worker: it takes turns (in queue order)
// picking the next mini-batch of whichever EST has prefetch headroom.
func (a *AsyncLoader) worker() {
	defer a.wg.Done()
	for {
		select {
		case <-a.quit:
			return
		case r := <-a.tasks:
			a.prefetchOne(r)
		}
	}
}

// prefetchOne materializes EST r's next unproduced step if it is within the
// prefetch horizon.
func (a *AsyncLoader) prefetchOne(r int) {
	a.rankMu[r].Lock()
	defer a.rankMu[r].Unlock()

	a.bufMu.Lock()
	step := a.produced[r]
	if step >= a.l.Sampler.StepsPerEpoch() || step-a.l.nextStep[r] >= a.depth {
		a.bufMu.Unlock()
		return
	}
	a.produced[r] = step + 1
	a.bufMu.Unlock()

	// materialize outside bufMu: the expensive pre-processing runs truly in
	// parallel across ESTs; rankMu keeps this EST's streams sequential
	p := a.l.materialize(step, r)

	a.bufMu.Lock()
	a.l.pending[r] = append(a.l.pending[r], p) // rankMu keeps these in step order
	a.cond.Broadcast()
	a.bufMu.Unlock()

	a.kick(r) // more headroom may remain
}

// Batch returns EST r's mini-batch for `step`, waiting for the pool if it is
// not prefetched yet. Consumption is in-order per EST, as in Loader; Batch
// must not be called after Close.
func (a *AsyncLoader) Batch(step, rank int) (*tensor.Tensor, []int) {
	a.bufMu.Lock()
	if step != a.l.nextStep[rank] {
		a.bufMu.Unlock()
		panic(fmt.Sprintf("data: async EST %d consuming step %d, expected %d", rank, step, a.l.nextStep[rank]))
	}
	for len(a.l.pending[rank]) == 0 {
		a.cond.Wait()
	}
	p := a.l.popPending(rank)
	a.l.nextStep[rank]++
	a.bufMu.Unlock()
	a.kick(rank)
	return p.x, p.labels
}

// Close stops the pool and waits for in-flight pre-processing; after Close
// the underlying Loader can be snapshotted (pending batches roll back to
// their recorded states) or used synchronously.
func (a *AsyncLoader) Close() {
	close(a.quit)
	a.cond.Broadcast()
	a.wg.Wait()
}
