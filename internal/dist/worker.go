package dist

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// A worker is persistent: it rendezvouses once, then serves reconfigure
// frames until the driver departs it. The boundary policies (driver.go)
// differ only in how long the driver lets it live: under live migration it
// survives scale events, keeping its job, its connections and every shard
// that does not change hands; under stop-restart it is departed when its phase
// completes, so it sees exactly one bootstrap reconfigure and none of the
// kept-connection paths below is ever taken. Either way the manifest — not
// shard arrival order — defines the decoded layout, so peer scheduling cannot
// affect numerics.

// WorkerSpec is what the launcher hands every worker process: the job
// definition (identical everywhere, like a training script plus launcher
// args) and the coordinator rendezvous address. Slot, placement, steps and
// the phase-entry state arrive over the wire in reconfigure frames.
type WorkerSpec struct {
	Cfg       core.Config
	Workload  string
	CoordAddr string
	// Epoch is the admission epoch of the rendezvous hello; the coordinator
	// rejects hellos from any other epoch, fencing stragglers of a crashed
	// attempt out of the retry.
	Epoch uint64
	// Index is the launcher's spawn index within Epoch. With Epoch it seeds
	// the pre-rendezvous fault injector, which exists before the worker has
	// been assigned a slot.
	Index int
	// Faults is the run's shared fault campaign; the worker derives a fresh
	// deterministic injector from it for every (phase epoch, slot) pair.
	Faults *faults.Plan
	// Tracer, when non-nil, records this worker's network spans on a
	// per-slot track. Tracing is observation only — it never touches
	// gradient bytes or frame contents.
	Tracer *obs.Tracer
}

// helloConn is an accepted connection whose first frame was a MsgHello —
// a next-phase follower for the training loop to adopt. payload is in conn's
// read buffer: the training loop, conn's owner now, parses it before reading.
type helloConn struct {
	conn    *conn
	payload []byte
}

// worker is one worker's process state: its listener (owned by the
// background server goroutine), the published shard snapshot it serves to
// peers, the hello queue feeding the leader's follower admission, and the
// data-plane connections kept alive across phases.
type worker struct {
	spec    WorkerSpec
	ln      net.Listener
	timeout time.Duration
	helloCh chan helloConn

	mu     sync.Mutex
	pubSet *checkpoint.ShardSet

	// prevRanks is the virtual-rank set this worker hosted in the phase
	// that just ended — the stay-set of the next migration diff.
	prevRanks []int

	// followers (on the leader) and leaderConn/leaderAddr (on a follower)
	// are the gradient-plane connections of the last phase, kept open so a
	// scale event between two surviving endpoints costs no dial at all.
	followers  []follower
	leaderConn *conn
	leaderAddr string

	// peerConns caches shard-fetch connections by peer address across
	// boundaries; the peer's shard-server loop keeps its end open, so a
	// stayer's next migration fetch skips the dial too.
	peerMu    sync.Mutex
	peerConns map[string]*conn
}

// peerConn checks a cached shard-fetch connection out of the pool (at most
// one goroutine uses a peer connection at a time).
func (w *worker) peerConn(addr string) *conn {
	w.peerMu.Lock()
	defer w.peerMu.Unlock()
	c := w.peerConns[addr]
	delete(w.peerConns, addr)
	return c
}

// warmPeers pre-dials the given shard servers into the peer-connection
// cache. It runs at phase end, off the reconfiguration critical path, so the
// next boundary's migration fetch starts with zero dials inside the downtime
// window. Best effort: a failed warm dial just means the fetch path dials
// fresh, as before.
func (w *worker) warmPeers(addrs []string) {
	self := w.ln.Addr().String()
	for _, a := range addrs {
		if a == self {
			continue
		}
		w.peerMu.Lock()
		_, ok := w.peerConns[a]
		w.peerMu.Unlock()
		if ok {
			continue
		}
		c, err := dial(a, w.timeout, w.timeout)
		if err != nil {
			continue
		}
		w.keepPeerConn(a, c)
	}
}

// keepPeerConn returns a healthy shard-fetch connection to the pool.
func (w *worker) keepPeerConn(addr string, c *conn) {
	w.peerMu.Lock()
	defer w.peerMu.Unlock()
	if w.peerConns == nil {
		w.peerConns = map[string]*conn{}
	}
	if _, ok := w.peerConns[addr]; ok {
		c.Close()
		return
	}
	w.peerConns[addr] = c
}

// publish installs the worker's end-of-phase shard snapshot for peer
// serving. The previous snapshot stays served until replaced: its byte
// slices are immutable and content-addressed, so a peer that is still
// fetching off it by hash can never observe anything but the exact bytes it
// asked for.
func (w *worker) publish(set *checkpoint.ShardSet) {
	w.mu.Lock()
	w.pubSet = set
	w.mu.Unlock()
}

// closeDataPlane shuts every kept gradient-plane and shard-fetch connection,
// on worker exit.
func (w *worker) closeDataPlane() {
	for _, f := range w.followers {
		f.conn.Close()
	}
	w.followers = nil
	if w.leaderConn != nil {
		w.leaderConn.Close()
		w.leaderConn = nil
	}
	w.peerMu.Lock()
	for _, c := range w.peerConns {
		c.Close()
	}
	w.peerConns = nil
	w.peerMu.Unlock()
}

// serve owns the worker's listener for the worker's whole lifetime, routing
// each accepted connection by its first frame: hellos go to the training
// loop (next-phase followers dialing their leader), shard requests are
// answered from the published snapshot. It exits when the listener closes.
func (w *worker) serve() {
	for {
		//detlint:ignore deadlineio -- lifetime accept loop: closing the listener at worker exit unblocks Accept with an error
		c, err := w.ln.Accept()
		if err != nil {
			return
		}
		go w.serveConn(withDeadline(c, w.timeout))
	}
}

func (w *worker) serveConn(c *conn) {
	for {
		t, payload, err := ReadFrame(c)
		if err != nil {
			c.Close()
			return
		}
		switch t {
		case MsgHello:
			select {
			case w.helloCh <- helloConn{conn: c, payload: payload}:
				// ownership transferred to the training loop
			default:
				c.Close()
			}
			return
		case MsgShardGet:
			hashes, err := decodeHashes(payload)
			if err != nil {
				c.Close()
				return
			}
			// built straight from the published snapshot's immutable bytes;
			// nothing writes a published set, so it is read unlocked
			w.mu.Lock()
			set := w.pubSet
			w.mu.Unlock()
			err = sendShards(c, hashes, set, maxFrame)
			if err != nil && (!errors.Is(err, errNotHeld) || WriteFrame(c, MsgReject, []byte(err.Error())) != nil) {
				c.Close()
				return
			}
		default:
			c.Close()
			return
		}
	}
}

// adoptFollowers assembles the leader's follower set for the next phase.
// Connections kept from the previous phase are reused for every slot that
// survives into the new placement (their workers are the same processes —
// slots are stable across a scale event); conns to departing slots are
// closed, and only genuinely new slots are awaited on the hello queue.
// Rank sets are always taken from the new placement. The set is stored on the
// worker — on an error return too, as far as it got, so closeDataPlane reaps
// exactly the connections still open when the worker exits.
func (w *worker) adoptFollowers(p core.Placement, stayed bool) error {
	n := len(p.Assignment) - 1
	// bySlot[slot] receives each connection into its claimed slot, so the
	// assembled follower order is slot order no matter in which order hellos
	// arrive (or which connections are reused).
	bySlot := make([]*conn, n+1)
	have := 0
	for _, f := range w.followers {
		if stayed && f.worker >= 1 && f.worker <= n && bySlot[f.worker] == nil {
			bySlot[f.worker] = f.conn
			have++
		} else {
			f.conn.Close()
		}
	}
	defer func() {
		w.followers = make([]follower, 0, have)
		for slot, c := range bySlot {
			if c != nil {
				w.followers = append(w.followers, follower{conn: c, worker: slot, ranks: p.Assignment[slot]})
			}
		}
	}()
	deadline := time.NewTimer(w.timeout)
	defer deadline.Stop()
	for have < n {
		var hc helloConn
		select {
		case hc = <-w.helloCh:
		case <-deadline.C:
			return fmt.Errorf("dist: leader adopted %d of %d followers before deadline", have, n)
		}
		slot, err := checkpoint.NewReader(hc.payload).Int()
		switch {
		case err != nil:
		case slot < 1 || slot > n:
			err = fmt.Errorf("dist: follower claims worker rank %d outside [1,%d]", slot, n)
		case bySlot[slot] != nil:
			err = fmt.Errorf("dist: duplicate follower for worker rank %d", slot)
		}
		if err != nil {
			hc.conn.Close()
			return err
		}
		bySlot[slot] = hc.conn
		have++
	}
	return nil
}

// fetchShards performs the parallel multi-peer fetch: the wanted manifest
// entries, grouped by their source peer, are pulled over one connection per
// peer concurrently — one request and one reply each — verified against their
// content addresses, and merged into one store. want filters the manifest
// (joiners take everything, stayers only their migrating EST shards).
func (w *worker) fetchShards(m checkpoint.Manifest, sources []int, peers []string, want func(checkpoint.ManifestEntry) bool, jitterSeed uint64) (*checkpoint.ShardSet, error) {
	perPeer := make([][]uint64, len(peers))
	seen := map[uint64]bool{}
	for i, e := range m.Entries {
		if !want(e) || seen[e.Hash] {
			continue
		}
		seen[e.Hash] = true
		perPeer[sources[i]] = append(perPeer[sources[i]], e.Hash)
	}

	var wg sync.WaitGroup
	shards, errs := make([][][]byte, len(peers)), make([]error, len(peers))
	for pi, hashes := range perPeer {
		if len(hashes) == 0 {
			continue
		}
		wg.Add(1)
		go func(pi int, hashes []uint64) {
			defer wg.Done()
			shards[pi], errs[pi] = w.fetchFromPeer(peers[pi], hashes, jitterSeed^uint64(pi))
		}(pi, hashes)
	}
	wg.Wait()

	set := checkpoint.NewShardSet(len(seen))
	for pi, got := range shards {
		if errs[pi] != nil {
			return nil, fmt.Errorf("dist: fetch from peer %d (%s): %w", pi, peers[pi], errs[pi])
		}
		for i, b := range got {
			if err := set.Add(perPeer[pi][i], b); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

// fetchFromPeer pulls a hash list off one peer over a single connection,
// preferring a cached connection from an earlier boundary. A stale cached
// connection (idle past the peer's serve deadline, or the peer departed)
// fails fast and falls back to a fresh dial.
func (w *worker) fetchFromPeer(addr string, hashes []uint64, jitterSeed uint64) ([][]byte, error) {
	if c := w.peerConn(addr); c != nil {
		out, err := requestShards(c, hashes)
		if err == nil {
			w.keepPeerConn(addr, c)
			return out, nil
		}
		c.Close()
	}
	c, err := dialRetry(addr, w.timeout, jitterSeed)
	if err != nil {
		return nil, err
	}
	out, err := requestShards(c, hashes)
	if err != nil {
		c.Close()
		return nil, err
	}
	w.keepPeerConn(addr, c)
	return out, nil
}

// requestShards runs the MsgShardGet dialog for a hash list on one
// connection: one request, answered by the shards in the list's order, each a
// view of the reply frame (fetchShards verifies them against their hashes).
func requestShards(c *conn, hashes []uint64) ([][]byte, error) {
	putHashes(c.begin(), hashes)
	if err := c.send(MsgShardGet); err != nil {
		return nil, err
	}
	out := make([][]byte, 0, len(hashes))
	err := readShards(c, hashes, func(_ uint64, b []byte) error {
		out = append(out, b)
		return nil
	})
	return out, err
}

// RunWorker executes one worker process: rendezvous with the coordinator
// once, then loop on control frames — reconfigure (obtain state, attach, train
// one phase with gradient synchronization over TCP, publish shards) until the
// driver sends MsgDepart.
//
// Every network operation is bounded by the configured timeout
// (core.Config.DistTimeout, else DefaultTimeout): dials
// retry with jittered exponential backoff until the deadline, and reads and
// writes arm per-operation deadlines, so a dead or hung peer surfaces as an
// error instead of hanging the worker forever.
//
// The gradient numerics are the in-process engine's: the leader averages
// every bucket over the EST gradient sets ordered by virtual rank with
// comm.ReduceAverage, the call core.Job.RunStep reduces through.
func RunWorker(spec WorkerSpec) error {
	if spec.Cfg.Level < core.D1 {
		return fmt.Errorf("dist: distributed runtime requires D1 determinism (got %v)", spec.Cfg.Level)
	}
	timeout := resolveTimeout(spec.Cfg.DistTimeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	w := &worker{
		spec:    spec,
		ln:      ln,
		timeout: timeout,
		helloCh: make(chan helloConn, 64),
		pubSet:  checkpoint.NewShardSet(0),
	}
	defer w.closeDataPlane()
	go w.serve()

	// the pre-rendezvous crash site: a worker that dies here never says
	// hello, so the driver's admission times out and the attempt is retried
	// under a fresh epoch
	if err := injectFault(spec.Faults.Injector(spec.Epoch, spec.Index), faults.Dial); err != nil {
		return err
	}
	// the listener address is unique per worker, so it doubles as the
	// per-worker jitter discriminator for dial backoff
	jitterSeed := spec.Cfg.Seed ^ spec.Epoch ^ checkpoint.HashBytes([]byte(ln.Addr().String()))
	ctrl, err := dialRetry(spec.CoordAddr, timeout, jitterSeed)
	if err != nil {
		return fmt.Errorf("dist: dial coordinator: %w", err)
	}
	defer ctrl.Close()
	hello := ctrl.begin()
	hello.PutUint64(spec.Epoch)
	hello.PutString(ln.Addr().String())
	if err := ctrl.send(MsgHello); err != nil {
		return err
	}

	var job *core.Job
	for {
		t, payload, err := ReadFrame(ctrl)
		if err != nil {
			return err
		}
		switch t {
		case MsgReject:
			return fmt.Errorf("dist: rendezvous rejected: %s", payload)
		case MsgDepart:
			return nil
		case MsgReconfigure:
			// rc.Container is a view of ctrl's read buffer; reconfigure, the
			// one place that reads it, is done before ctrl is read again
			rc, err := decodeReconfig(payload)
			if err != nil {
				return err
			}
			inj := spec.Faults.Injector(rc.Epoch, rc.Slot)
			// a stayer keeps its process, its job, and its data-plane
			// connections across the boundary; decided before reconfigure
			// mutates the job pointer
			stayed := rc.Kind == kindMigrate && job != nil
			// one trace track per slot; Track is a no-op (-1) on a nil tracer
			track := spec.Tracer.Track(fmt.Sprintf("worker-%d", rc.Slot))
			tRec := spec.Tracer.Now()
			if job, err = w.reconfigure(job, rc, inj, ctrl, track, jitterSeed); err != nil {
				return err
			}
			spec.Tracer.Span(track, obs.CatPhase, "live.reconfigure", tRec, int64(rc.Kind), int64(rc.Slot))
			if err := WriteFrame(ctrl, MsgReady, nil); err != nil {
				return err
			}
			// no go-barrier: the worker enters the phase straight off Ready.
			// That is safe because every cross-worker fetch of the boundary
			// happened inside reconfigure (before Ready), the driver departs
			// leavers only after collecting every Ready, and published shard
			// snapshots are immutable content-addressed bytes — a peer still
			// reading the old snapshot gets exactly the bytes it asked for.
			if err := w.runPhase(job, rc, inj, ctrl, stayed, track, jitterSeed); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: unexpected control frame %d", t)
		}
	}
}

// reconfigure brings the worker's job to the next phase's entry state.
// Stayers keep their live job — only the EST contexts newly assigned to this
// slot migrate in, fetched from the workers that hosted them — and re-attach
// via core.ScaleLive, skipping the encode/decode/rebuild round trip
// entirely. Joiners assemble the full state from their peers.
func (w *worker) reconfigure(job *core.Job, rc reconfig, inj *faults.Injector, ctrl *conn, track int, jitterSeed uint64) (*core.Job, error) {
	spec := w.spec
	tr := spec.Tracer
	var err error
	switch rc.Kind {
	case kindFresh, kindContainer:
		if job != nil {
			return nil, fmt.Errorf("dist: bootstrap reconfigure on a live worker")
		}
		if rc.Kind == kindFresh {
			job, err = core.NewJob(spec.Cfg, spec.Workload)
		} else {
			job, err = core.RestoreJob(spec.Cfg, rc.Container)
		}
		if err != nil {
			return nil, err
		}
		if err := job.Attach(rc.Placement); err != nil {
			return nil, err
		}
	case kindMigrate:
		// the mid-migration crash site: fires after the reconfigure frame is
		// decoded and before any shard moves, so a crashed worker leaves the
		// boundary half-migrated and the driver must tear down and retry
		if err := injectFault(inj, faults.Migrate, ctrl); err != nil {
			return nil, err
		}
		if job == nil {
			// joiner: parallel multi-peer restore of the full manifest
			tFetch := tr.Now()
			set, err := w.fetchShards(rc.Manifest, rc.Sources, rc.PeerAddrs, func(checkpoint.ManifestEntry) bool { return true }, jitterSeed)
			if err != nil {
				return nil, err
			}
			tr.Span(track, obs.CatShard, "net.shard-fetch", tFetch, int64(set.Len()), int64(rc.Manifest.TotalLen()))
			if job, err = core.RestoreJobShards(spec.Cfg, rc.Manifest, set); err != nil {
				return nil, err
			}
			if err := job.Attach(rc.Placement); err != nil {
				return nil, err
			}
		} else {
			// stayer: live migration — fetch only the EST shards whose
			// virtual ranks move onto this slot, straight from their old
			// hosts, and keep everything else in place
			need := map[string]bool{}
			for _, r := range rc.Placement.Assignment[rc.Slot] {
				if !slices.Contains(w.prevRanks, r) {
					need[checkpoint.ESTShardID(r)] = true
				}
			}
			if len(need) > 0 {
				tFetch := tr.Now()
				set, err := w.fetchShards(rc.Manifest, rc.Sources, rc.PeerAddrs, func(e checkpoint.ManifestEntry) bool { return need[e.ID] }, jitterSeed)
				if err != nil {
					return nil, err
				}
				for _, e := range rc.Manifest.Entries {
					if !need[e.ID] {
						continue
					}
					b, ok := set.Get(e.Hash)
					if !ok {
						return nil, fmt.Errorf("dist: migration fetch missed shard %q", e.ID)
					}
					if err := job.ImportESTContext(checkpoint.NewReader(b)); err != nil {
						return nil, err
					}
				}
				tr.Span(track, obs.CatShard, "net.migrate", tFetch, int64(len(need)), int64(rc.Slot))
			}
			if err := job.ScaleLive(rc.Placement); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("dist: unknown reconfigure kind %d", rc.Kind)
	}
	w.prevRanks = rc.Placement.Assignment[rc.Slot]
	return job, nil
}

// runPhase trains one phase on an already-attached job, then publishes the
// end-of-phase shard snapshot for peer fetching. The leader additionally
// assembles the canonical state (importing follower EST contexts) and runs
// the incremental directory ship; followers just sync their data cursors so
// their published meta/param/moment shards are bitwise the canonical ones.
func (w *worker) runPhase(job *core.Job, rc reconfig, inj *faults.Injector, ctrl *conn, stayed bool, track int, jitterSeed uint64) error {
	spec := w.spec
	tr := spec.Tracer
	if rc.Slot == 0 {
		if err := w.adoptFollowers(rc.Placement, stayed); err != nil {
			return err
		}
		followers, conns := w.followers, []net.Conn{ctrl}
		for _, f := range followers {
			conns = append(conns, f.conn)
		}
		if err := leaderSteps(job, tr, inj, rc.Placement, followers, ctrl, conns, rc.Steps, track, spec.Cfg.NumESTs); err != nil {
			return err
		}
		if err := injectFault(inj, faults.CkptShip, conns...); err != nil {
			return err
		}
		tCollect := tr.Now()
		if err := leaderCollectContexts(job, followers); err != nil {
			return err
		}
		tr.Span(track, obs.CatNet, "net.ckpt-ship", tCollect, int64(len(followers)), 0)
		m, set := job.BuildShards()
		w.publish(set)
		// incremental directory ship: offer the manifest, upload only what
		// the directory lacks. Runs while peers are already fetching off the
		// published snapshot — the upload is off the reconfiguration path.
		if err := injectFault(inj, faults.ShardShip, ctrl); err != nil {
			return err
		}
		tShip := tr.Now()
		sent, err := shipShards(ctrl, m, set)
		if err != nil {
			return err
		}
		tr.Span(track, obs.CatShard, "net.shard-ship", tShip, int64(sent), int64(m.TotalLen()))
	} else {
		// reuse the kept leader connection when both endpoints survived the
		// boundary: the previous phase drained it fully (the leader read
		// this follower's MsgCkpt), so the stream is at a frame
		// boundary and the first MsgGrads of the new phase is unambiguous.
		// Only a real dial passes the Dial fault site.
		leader := w.leaderConn
		if !stayed || leader == nil || rc.LeaderAddr != w.leaderAddr {
			if w.leaderConn != nil {
				w.leaderConn.Close()
				w.leaderConn = nil
			}
			if err := injectFault(inj, faults.Dial, ctrl); err != nil {
				return err
			}
			c, err := dialRetry(rc.LeaderAddr, w.timeout, jitterSeed^uint64(rc.Slot))
			if err != nil {
				return fmt.Errorf("dist: dial leader: %w", err)
			}
			w.leaderConn, w.leaderAddr = c, rc.LeaderAddr
			c.begin().PutInt(rc.Slot)
			if err := c.send(MsgHello); err != nil {
				return err
			}
			leader = c
		}
		if err := followerSteps(job, tr, inj, rc.Placement, rc.Slot, leader, ctrl, rc.Steps, track); err != nil {
			return err
		}
		if err := injectFault(inj, faults.CkptShip, leader, ctrl); err != nil {
			return err
		}
		own := rc.Placement.Assignment[rc.Slot]
		tShip := tr.Now()
		if err := followerShipContexts(job, leader, own); err != nil {
			return err
		}
		tr.Span(track, obs.CatNet, "net.ckpt-ship", tShip, int64(len(own)), int64(rc.Slot))
		// syncing the cursors makes this worker's meta shard bitwise the
		// canonical one, so any peer can serve it during the next migration
		job.SyncDataCursors()
		_, set := job.BuildShards()
		w.publish(set)
	}
	w.warmPeers(rc.WarmAddrs)
	return WriteFrame(ctrl, MsgPhaseDone, nil)
}
