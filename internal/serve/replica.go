package serve

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// replica is one serving instance of a model: its own Servable (parameters,
// implicit state, and layer scratch are private — nn layers cache
// activations during Forward, so replicas must not share a net), its own
// deterministic device, and a loop that drains the deployment's shared
// queue in batches. Its flush timer, batch slice and scratch scope live as
// long as the replica, so the loop allocates nothing per batch.
type replica struct {
	idx   int
	dep   *deployment
	sv    *models.Servable
	dev   *device.Device
	ctx   *nn.Context
	tr    *obs.Tracer
	trk   int
	timer *time.Timer
	batch []*item
	shape []int
	stop  chan struct{}
	done  chan struct{}
}

// newReplica builds a replica; the caller starts its loop.
func newReplica(dep *deployment, idx int, tr *obs.Tracer) (*replica, error) {
	sv, err := models.Load(dep.name, dep.container)
	if err != nil {
		return nil, fmt.Errorf("serve: replica %d of %q: %w", idx, dep.name, err)
	}
	dev := device.New(device.V100, device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic})
	return &replica{
		idx:   idx,
		dep:   dep,
		sv:    sv,
		dev:   dev,
		ctx:   &nn.Context{Dev: dev, Training: false, Scratch: pool.NewScope()},
		tr:    tr,
		trk:   tr.Track(fmt.Sprintf("serve/%s/%d", dep.name, idx)),
		timer: newFlushTimer(),
		batch: make([]*item, 0, dep.maxBatch),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}, nil
}

// loop drains the deployment queue until stopped. A stop takes effect
// between batches: the current batch always completes and replies, so
// removing a replica never drops an in-flight request, and anything still
// queued stays in the shared queue for the surviving replicas.
func (r *replica) loop() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		batch := r.dep.q.collect(r.batch, r.dep.maxBatch, r.dep.maxWait, r.timer, r.stop)
		if batch == nil {
			// stopped mid-wait (items stay queued for peers) or queue
			// closed; either way the loop-head select decides
			if r.dep.q.isClosed() {
				return
			}
			continue
		}
		r.dep.inflight.Add(int64(len(batch)))
		r.serveBatch(batch)
		r.dep.inflight.Add(-int64(len(batch)))
	}
}

// serveBatch coalesces the batch into one forward pass and splits the
// output rows back into per-request replies. Row b of the output is bitwise
// the prediction request b would get alone — see the package doc — so
// coalescing here is invisible to clients. The forward passes' activations
// go back to the arena once the replies hold their copies of the rows.
func (r *replica) serveBatch(batch []*item) {
	defer r.ctx.Scratch.ReleaseAll()
	start := r.tr.Now()
	for _, it := range batch {
		// queue residency: from arrival to the moment a replica took it
		r.tr.Span(r.trk, obs.CatServe, "serve.queue", it.enqClock, int64(it.req.ID), 0)
	}
	inDim := r.sv.InDim()
	size := len(batch)
	ok := batch[:0] // filtered in place: the batch slice is the replica's own
	for _, it := range batch {
		if len(it.req.Input) != inDim {
			it.reply <- dist.PredictReply{ID: it.req.ID,
				Err: fmt.Sprintf("model %q wants %d input values, got %d", r.dep.name, inDim, len(it.req.Input))}
			continue
		}
		ok = append(ok, it)
	}
	if len(ok) == 0 {
		// the whole batch was malformed; close the span so the trace still
		// accounts for the pass
		r.tr.Span(r.trk, obs.CatServe, "serve.batch.rejected", start, 0, int64(size))
		return
	}
	out, err := r.forward(ok)
	if err != nil && len(ok) > 1 {
		// one bad request can poison a coalesced pass (embedding ids probe
		// vocabulary bounds inside the kernel); retry each alone so its
		// batchmates still get answers
		for i, it := range ok {
			single, serr := r.forward(ok[i : i+1])
			if serr != nil {
				it.reply <- dist.PredictReply{ID: it.req.ID, Err: serr.Error()}
				continue
			}
			it.reply <- dist.PredictReply{ID: it.req.ID, Output: single.row(0)}
		}
		r.tr.Span(r.trk, obs.CatServe, "serve.batch.degraded", start, int64(len(ok)), 1)
		return
	}
	if err != nil {
		ok[0].reply <- dist.PredictReply{ID: ok[0].req.ID, Err: err.Error()}
		r.tr.Span(r.trk, obs.CatServe, "serve.batch.error", start, int64(len(ok)), 0)
		return
	}
	for b, it := range ok {
		it.reply <- dist.PredictReply{ID: it.req.ID, Output: out.row(b)}
	}
	r.tr.Span(r.trk, obs.CatServe, "serve.batch", start, int64(len(ok)), int64(size-len(ok)))
}

// rows wraps a forward output for per-request row extraction.
type rows struct {
	data   []float32
	rowLen int
}

func (o rows) row(b int) []float32 {
	return append([]float32(nil), o.data[b*o.rowLen:(b+1)*o.rowLen]...)
}

// forward runs one coalesced pass over the batch. Panics from the nn layer
// stack (out-of-vocabulary ids, shape violations) surface as errors.
func (r *replica) forward(batch []*item) (out rows, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: model %q rejected input: %v", r.dep.name, p)
		}
	}()
	r.shape = append(append(r.shape[:0], len(batch)), r.sv.InShape...)
	x := tensor.NewScopedUninit(r.ctx.Scratch, r.shape...)
	inDim := r.sv.InDim()
	for b, it := range batch {
		copy(x.Data[b*inDim:(b+1)*inDim], it.req.Input)
	}
	y := r.sv.Net.Forward(r.ctx, x)
	if y.Dim(0) != len(batch) {
		return rows{}, fmt.Errorf("serve: model %q returned %d rows for %d requests", r.dep.name, y.Dim(0), len(batch))
	}
	return rows{data: y.Data, rowLen: y.Size() / len(batch)}, nil
}

// halt stops the replica and waits for its loop to finish the in-flight
// batch.
func (r *replica) halt() {
	close(r.stop)
	<-r.done
}
