package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/obs"
)

// deployment is one served model: a checkpoint container, the shared
// request queue, and the live replica set.
type deployment struct {
	name      string
	container []byte
	q         *queue
	maxBatch  int
	maxWait   time.Duration

	mu       sync.Mutex
	replicas []*replica
	nextIdx  int // monotonically increasing replica index (track names stay unique)

	inflight   atomic.Int64
	idleRounds int // guarded by Server.mu (autoscale runs single-threaded)
}

// Server serves predict requests for a set of deployed models over the
// framed dist protocol, with per-deployment dynamic batching and
// saturation-based replica autoscaling.
type Server struct {
	opts Options
	tr   *obs.Tracer

	mu       sync.Mutex
	deps     map[string]*deployment
	depNames []string // sorted; the deterministic iteration order over deps
	closed   bool

	ln net.Listener
	wg sync.WaitGroup

	// rejected counts requests answered with an error reply (never
	// silently dropped — the zero-drop invariant is replies == requests).
	rejected atomic.Int64
}

// NewServer creates a server. tr may be nil (tracing off).
func NewServer(opts Options, tr *obs.Tracer) *Server {
	return &Server{opts: opts.withDefaults(), tr: tr, deps: map[string]*deployment{}}
}

// Deploy registers a model from its checkpoint container and starts the
// given number of replicas. The container is validated eagerly: a broken
// checkpoint fails here, not on the first request.
func (s *Server) Deploy(name string, container []byte, replicas int) error {
	if _, err := models.Load(name, container); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("serve: server closed")
	}
	if _, ok := s.deps[name]; ok {
		return fmt.Errorf("serve: model %q already deployed", name)
	}
	d := &deployment{
		name:      name,
		container: container,
		q:         newQueue(),
		maxBatch:  s.opts.MaxBatch,
		maxWait:   s.opts.MaxWait,
	}
	s.deps[name] = d
	s.depNames = append(s.depNames, name)
	sort.Strings(s.depNames)
	return s.setReplicasLocked(d, replicas)
}

// SetReplicas live-scales a deployment. Scaling down halts the excess
// replicas after their in-flight batch; scaling up adds consumers of the
// same queue. Neither direction drops or delays queued requests.
func (s *Server) SetReplicas(name string, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.deps[name]
	if !ok {
		return fmt.Errorf("serve: model %q not deployed: %w", name, models.ErrNotFound)
	}
	return s.setReplicasLocked(d, n)
}

func (s *Server) setReplicasLocked(d *deployment, n int) error {
	if n < 0 {
		n = 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.replicas) > n {
		last := d.replicas[len(d.replicas)-1]
		d.replicas = d.replicas[:len(d.replicas)-1]
		d.mu.Unlock()
		last.halt() // completes its in-flight batch; queued items survive
		d.mu.Lock()
	}
	for len(d.replicas) < n {
		r, err := newReplica(d, d.nextIdx, s.tr)
		if err != nil {
			return err
		}
		go r.loop()
		d.nextIdx++
		d.replicas = append(d.replicas, r)
	}
	if s.tr != nil {
		s.tr.Event(s.tr.Track("serve/scaler"), obs.CatServe, "serve.scale",
			d.name, int64(n), int64(d.q.depth()))
	}
	return nil
}

// Rejected reports requests answered with an error reply.
func (s *Server) Rejected() int64 { return s.rejected.Load() }

// dispatchItems recycles Dispatch's items with their reply channels. An
// item goes back empty: every request gets exactly one reply, and Dispatch
// has taken it, after which no replica touches the item again.
var dispatchItems = sync.Pool{New: func() any { return &item{reply: make(chan dist.PredictReply, 1)} }}

// Dispatch is the in-process entry point: it enqueues the request and
// blocks until its reply. Unknown models and closed deployments get error
// replies, never silence.
func (s *Server) Dispatch(req dist.PredictRequest) dist.PredictReply {
	it := dispatchItems.Get().(*item)
	it.req = req
	s.enqueue(it)
	rep := <-it.reply
	*it = item{reply: it.reply}
	dispatchItems.Put(it)
	return rep
}

// enqueue stamps the item and routes it to its deployment's queue. The
// item's reply channel may be shared by many requests — the connection
// handler funnels a whole connection's replies through one channel.
// Exactly one reply is always sent.
func (s *Server) enqueue(it *item) {
	req := it.req
	s.mu.Lock()
	d, ok := s.deps[req.Model]
	s.mu.Unlock()
	if !ok {
		s.rejected.Add(1)
		it.reply <- dist.PredictReply{ID: req.ID, Err: fmt.Sprintf("unknown model %q", req.Model)}
		return
	}
	it.enq, it.enqClock = time.Now(), s.tr.Now()
	if req.BudgetMicros > 0 {
		it.deadline = it.enq.Add(time.Duration(req.BudgetMicros) * time.Microsecond)
	}
	if !d.q.push(it) {
		s.rejected.Add(1)
		it.reply <- dist.PredictReply{ID: req.ID, Err: fmt.Sprintf("model %q is shutting down", req.Model)}
	}
}

// Loads snapshots every deployment for the autoscaler, in sorted name
// order.
func (s *Server) Loads() []ModelLoad {
	s.mu.Lock()
	defer s.mu.Unlock()
	loads := make([]ModelLoad, 0, len(s.depNames))
	for _, name := range s.depNames {
		d := s.deps[name]
		d.mu.Lock()
		n := len(d.replicas)
		d.mu.Unlock()
		loads = append(loads, ModelLoad{
			Name:       name,
			Replicas:   n,
			Queued:     d.q.depth(),
			Inflight:   int(d.inflight.Load()),
			IdleRounds: d.idleRounds,
		})
	}
	return loads
}

// AutoscaleOnce runs one plan/apply round and returns the applied plan.
func (s *Server) AutoscaleOnce() []Plan {
	loads := s.Loads()
	// update the idle accounting the next snapshot will see
	s.mu.Lock()
	for i, l := range loads {
		d := s.deps[l.Name]
		if d == nil {
			continue
		}
		if l.Queued+l.Inflight == 0 {
			d.idleRounds++
		} else {
			d.idleRounds = 0
		}
		loads[i].IdleRounds = d.idleRounds
	}
	s.mu.Unlock()
	plans := PlanReplicas(loads, s.opts.MaxBatch, s.opts.Capacity, s.opts.IdleTicks)
	for _, p := range plans {
		// ignore per-deployment errors here: a failed scale-up leaves the
		// previous replica set serving
		_ = s.SetReplicas(p.Name, p.Replicas)
	}
	return plans
}

// StartAutoscaler runs AutoscaleOnce every interval until the returned stop
// function is called.
func (s *Server) StartAutoscaler(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.AutoscaleOnce()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Serve accepts connections on ln until Close. Each connection may pipeline
// predict requests; replies carry the request's ID, so clients match them
// regardless of batching.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		//detlint:ignore deadlineio -- lifetime accept loop: Close() closes the listener, which unblocks Accept with an error
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// handleConn reads predict frames and writes replies. The reader enqueues
// straight into deployment queues — no per-request goroutine — and all of
// the connection's replies funnel through one channel to a single writer
// goroutine, so batched completions from several replicas never interleave
// partial frames. The reader counts requests in, the writer counts replies
// out (draining without writing once the conn errors), and the reader
// closes the channel only when the two balance — the zero-drop invariant at
// connection scope.
func (s *Server) handleConn(c net.Conn) {
	defer c.Close()
	replies := make(chan dist.PredictReply, 256)
	writerDone := make(chan struct{})
	var pending sync.WaitGroup
	go func() {
		defer close(writerDone)
		failed := false
		for rep := range replies {
			if !failed {
				// a stalled client must not wedge the writer (and through it
				// pending.Wait and Close); bound each reply write
				if err := c.SetWriteDeadline(time.Now().Add(dist.DefaultTimeout)); err != nil {
					failed = true
				} else if err := dist.WriteFrame(c, dist.MsgPredictReply, dist.EncodePredictReply(rep)); err != nil {
					failed = true // keep draining so replicas never block on a dead conn
				}
			}
			pending.Done()
		}
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		t, payload, err := dist.ReadFrameFrom(br)
		if err != nil {
			break
		}
		if t != dist.MsgPredict {
			break
		}
		req, err := dist.DecodePredict(payload)
		if err != nil {
			// can't know the ID of a frame that failed to decode; the
			// stream may be desynchronized, so answer and hang up
			s.rejected.Add(1)
			pending.Add(1)
			replies <- dist.PredictReply{Err: fmt.Sprintf("bad predict frame: %v", err)}
			break
		}
		pending.Add(1)
		s.enqueue(&item{req: req, reply: replies})
	}
	pending.Wait()
	close(replies)
	<-writerDone
}

// Close stops accepting, drains every deployment queue (replicas answer
// whatever is still queued), then halts all replicas.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	names := append([]string(nil), s.depNames...)
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	for _, name := range names {
		s.mu.Lock()
		d := s.deps[name]
		s.mu.Unlock()
		d.q.close() // collectors drain the remainder, then see closed+empty
		d.mu.Lock()
		replicas := append([]*replica(nil), d.replicas...)
		d.replicas = nil
		d.mu.Unlock()
		if len(replicas) == 0 {
			// scaled to zero: nobody will answer the stragglers; reply
			// with an error rather than leaving Dispatch callers blocked
			for _, it := range d.q.drainAll() {
				s.rejected.Add(1)
				it.reply <- dist.PredictReply{ID: it.req.ID,
					Err: fmt.Sprintf("model %q is shutting down", d.name)}
			}
		}
		// let the replicas answer everything still queued before joining
		// them — halting first could abort a collect mid-drain
		for d.q.depth() > 0 || d.inflight.Load() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
		for _, r := range replicas {
			r.halt()
		}
	}
}
