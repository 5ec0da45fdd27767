package dist

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The elastic driver. Every phase runs on a set of persistent workers; the
// two boundary policies differ in one decision — what happens to the set when
// a phase completes.
//
// Stop-restart (the default, the paper's on-demand checkpoint plus restart):
// the whole set is departed and reaped, so the next phase bootstraps a fresh
// one from the coordinator's shard directory — new worker processes, new
// listeners and dials, a full container decode per worker, nothing kept and
// nothing pre-dialled.
//
// Live migration (WithLiveMigration): the set survives the boundary and is
// reconfigured in place. At a scale event:
//
//   - staying workers keep their live job and fetch only the EST context
//     shards newly assigned to them, straight from the workers that hosted
//     them (core.ScaleLive — no encode/decode/rebuild round trip);
//   - joining workers assemble the full state by fetching disjoint shard
//     slices from multiple peers in parallel and reassembling them via the
//     manifest (core.RestoreJobShards);
//   - leaving workers serve their shards until every fetch completes, then
//     depart.
//
// The coordinator keeps a shard directory — manifest plus content-addressed
// store — updated by an incremental ship from the leader at the end of every
// phase, so it always holds exactly the last phase boundary. The restart
// policy restores from it at every boundary; under either policy it is the
// crash-recovery state: when any worker of the set dies, the whole set is torn
// down and the phase retried by bootstrapping a fresh set from the directory.
// A retried phase therefore reproduces bitwise what the uninterrupted phase
// would have computed.

// handle is the driver's view of one worker slot: its control connection and
// its shard-serving listen address.
type handle struct {
	ctrl *conn
	addr string
}

// driver is the state of one elastic run.
type driver struct {
	coord *Coordinator
	cfg   core.Config
	o     runOptions
	// spawn launches worker idx of an admission epoch and returns the
	// channel its exit error will arrive on (buffered, exactly one send). It
	// is nil when workers are launched externally and simply dial in.
	spawn func(epoch uint64, idx int) <-chan error
	track int // the driver's trace track

	// the coordinator shard directory: the canonical state of the last
	// completed phase boundary
	dirM   checkpoint.Manifest
	dirSet *checkpoint.ShardSet
	dirHas bool

	// the current worker set, indexed by slot, and its placement
	workers   []*handle
	placement core.Placement

	// one done channel per spawned worker not yet reaped; reaping never
	// blocks on a worker that already exited
	doneBag []<-chan error
}

func newDriver(coord *Coordinator, cfg core.Config, o runOptions) *driver {
	return &driver{
		coord:  coord,
		cfg:    cfg,
		o:      o,
		track:  o.tracer.Track("driver"),
		dirSet: checkpoint.NewShardSet(0),
	}
}

// run executes the phases and returns the final checkpoint container from the
// coordinator directory. This is the runtime's one retry loop: a failed phase
// attempt is retried, after a jittered exponential backoff and under a fresh
// rendezvous epoch, from the directory's last completed boundary.
func (d *driver) run(phases []Phase) ([]byte, error) {
	tr, o := d.o.tracer, d.o
	jit := rng.NewNamed(d.cfg.Seed, "dist-retry")
	for pi, ph := range phases {
		if err := ph.Placement.Validate(d.cfg.NumESTs); err != nil {
			d.abort()
			return nil, fmt.Errorf("dist: phase %d: %w", pi, err)
		}
		tPhase := tr.Now()
		// the downtime clock starts here: the elasticity decision is made and
		// the boundary policy's reconfiguration machinery begins
		tr.Event(d.track, obs.CatPhase, "dist.scale-trigger", "", int64(pi), int64(ph.Steps))
		var lastErr error
		for attempt := 0; ; attempt++ {
			if attempt > o.retry.MaxRetries {
				if o.retry.MaxRetries > 0 {
					return nil, fmt.Errorf("dist: phase %d exhausted retries: %w", pi, lastErr)
				}
				return nil, fmt.Errorf("dist: phase %d: %w", pi, lastErr)
			}
			if attempt > 0 {
				tr.Event(d.track, obs.CatFault, "dist.retry", lastErr.Error(), int64(pi), int64(attempt))
				time.Sleep(backoff(attempt-1, o.retry.BaseBackoff, o.retry.MaxBackoff, jit))
			}
			lastErr = d.runPhase(ph)
			if lastErr == nil {
				break
			}
			// tear the whole set down; the next attempt bootstraps from the
			// directory, which still holds the last completed boundary. An
			// injected crash reaped from a worker is the root cause of
			// whatever secondary error the driver observed — surface it.
			if inj := d.abort(); inj != nil && !errors.Is(lastErr, faults.ErrInjectedCrash) {
				lastErr = inj
			}
		}
		if !o.live {
			// stop-restart: nothing of this set survives into the next phase
			if err := d.shutdown(); err != nil {
				return nil, err
			}
		}
		tr.Span(d.track, obs.CatPhase, "dist.phase", tPhase, int64(pi), int64(ph.Steps))
	}
	if err := d.shutdown(); err != nil {
		return nil, err
	}
	return checkpoint.EncodeContainer(d.dirM, d.dirSet)
}

// admitWorkers launches n workers (when the driver is the launcher) and
// admits n hellos carrying epoch.
func (d *driver) admitWorkers(epoch uint64, n int) ([]*handle, error) {
	if d.spawn != nil {
		for i := 0; i < n; i++ {
			d.doneBag = append(d.doneBag, d.spawn(epoch, i))
		}
	}
	return d.coord.admit(epoch, n)
}

// reap waits for every outstanding worker and returns the first error among
// them — only an injected crash when injectedOnly, which is what a teardown
// after a failed attempt cares about.
func (d *driver) reap(injectedOnly bool) error {
	var first error
	for _, done := range d.doneBag {
		if werr := <-done; werr != nil && first == nil && (!injectedOnly || errors.Is(werr, faults.ErrInjectedCrash)) {
			//detlint:ignore chanorder -- one receive per distinct buffered channel, drained in slice order; "first" means first in bag order, which is deterministic
			first = werr
		}
	}
	d.doneBag = nil
	return first
}

// abort tears the worker set down hard: close every control connection, wait
// for every worker goroutine to exit (their per-operation deadlines bound
// the wait), and report any injected crash found among their errors.
func (d *driver) abort() error {
	for _, h := range d.workers {
		h.ctrl.Close()
	}
	d.workers = nil
	return d.reap(true)
}

// shutdown ends a completed phase (restart policy) or run gracefully: every
// worker of the set departs and is reaped.
func (d *driver) shutdown() error {
	for _, h := range d.workers {
		if err := WriteFrame(h.ctrl, MsgDepart, nil); err != nil {
			d.abort()
			return err
		}
	}
	for _, h := range d.workers {
		h.ctrl.Close()
	}
	d.workers = nil
	return d.reap(false)
}

// runPhase drives one phase attempt: reconfigure (bootstrap or migrate),
// release, then collect completions and run the directory ship.
func (d *driver) runPhase(ph Phase) error {
	epoch := d.coord.beginEpoch()
	newN := len(ph.Placement.Assignment)
	oldN := len(d.workers)
	rc := reconfig{Epoch: epoch, Steps: ph.Steps, Kind: kindFresh, Placement: ph.Placement}

	var next, leavers []*handle
	var err error
	if oldN == 0 {
		// bootstrap: a fresh set, from nothing or from the directory. Under
		// the restart policy every phase comes through here.
		if d.dirHas {
			rc.Kind = kindContainer
			if rc.Container, err = checkpoint.EncodeContainer(d.dirM, d.dirSet); err != nil {
				return fmt.Errorf("dist: directory container: %w", err)
			}
		}
		if next, err = d.admitWorkers(epoch, newN); err != nil {
			return err
		}
	} else {
		// migrate: stayers keep their slots, joiners are admitted into the
		// new high slots, leavers keep serving until every fetch is done
		if !d.dirHas {
			return fmt.Errorf("dist: migrating with an empty shard directory")
		}
		rc.Kind, rc.Manifest = kindMigrate, d.dirM
		if rc.Sources, err = d.sourceTable(oldN); err != nil {
			return err
		}
		rc.PeerAddrs = make([]string, oldN)
		for i, h := range d.workers {
			rc.PeerAddrs[i] = h.addr
		}
		stay := min(oldN, newN)
		next = make([]*handle, newN)
		copy(next, d.workers[:stay])
		leavers = d.workers[stay:]
		if newN > oldN {
			joiners, err := d.admitWorkers(epoch, newN-oldN)
			if err != nil {
				return err
			}
			copy(next[oldN:], joiners)
		}
	}
	// the new set is live from here on: any failure below must close every
	// control connection, including the leavers', which abort() does
	d.workers = append(next, leavers...)
	d.placement = ph.Placement

	rc.LeaderAddr = next[0].addr
	if d.o.live {
		// this set may see another boundary: have every worker pre-dial its
		// peers' shard servers at phase end, off the downtime path. A set the
		// restart policy is about to reap gets no such head start.
		rc.WarmAddrs = make([]string, newN)
		for i, h := range next {
			rc.WarmAddrs[i] = h.addr
		}
	}
	for slot, h := range next {
		rc.Slot = slot
		// one frame buffer for the whole set: a restart phase's frame carries
		// the container, which N buffers would hold N times
		encodeReconfig(next[0].ctrl.begin(), rc)
		if err := next[0].ctrl.sendTo(h.ctrl, MsgReconfigure); err != nil {
			return err
		}
	}

	// every worker reports ready only after its fetches completed, so once
	// all are ready nothing references the leavers any more. There is no
	// go-barrier behind Ready: workers enter the phase on their own, so the
	// boundary costs one control round trip, not two.
	for slot, h := range next {
		if _, err := Expect(h.ctrl, MsgReady); err != nil {
			return fmt.Errorf("dist: slot %d ready: %w", slot, err)
		}
	}
	for _, h := range leavers {
		if err := WriteFrame(h.ctrl, MsgDepart, nil); err != nil {
			return err
		}
		h.ctrl.Close()
	}
	d.workers = next

	// phase completions: followers finish, sync, and publish quickly; the
	// leader's completion is gated on the incremental directory ship, so its
	// dialog is served last and overlaps the followers' boundary work
	for slot := 1; slot < newN; slot++ {
		if _, err := Expect(next[slot].ctrl, MsgPhaseDone); err != nil {
			return fmt.Errorf("dist: slot %d phase: %w", slot, err)
		}
	}
	mRaw, err := Expect(next[0].ctrl, MsgManifest)
	if err != nil {
		return fmt.Errorf("dist: leader phase: %w", err)
	}
	m, err := checkpoint.DecodeManifest(mRaw)
	if err != nil {
		return err
	}
	tShip := d.o.tracer.Now()
	missing, err := receiveShards(next[0].ctrl, m, d.dirSet)
	if err != nil {
		return err
	}
	d.o.tracer.Span(d.track, obs.CatShard, "dir.shard-receive", tShip, int64(missing), int64(len(m.Entries)))
	if _, err := Expect(next[0].ctrl, MsgPhaseDone); err != nil {
		return err
	}

	// commit the boundary: swap the manifest in and drop shards no longer
	// referenced, so the directory stays one boundary large
	pruned, err := d.dirSet.Subset(m)
	if err != nil {
		return fmt.Errorf("dist: directory after ship: %w", err)
	}
	d.dirM, d.dirSet, d.dirHas = m, pruned, true
	return nil
}

// sourceTable routes every directory manifest entry to the old-set slot that
// serves it during a migration: an EST context shard to the worker that
// hosted that virtual rank (it holds the shard hot and bitwise-canonical
// after its end-of-phase publish), the meta shard to the leader, and the
// parameter/moment shards round-robin across the whole old set — every
// worker holds identical copies of those, so spreading the load is free.
func (d *driver) sourceTable(oldN int) ([]int, error) {
	// rankHost[r] is the slot hosting virtual rank r plus one, 0 for none
	rankHost := make([]int, d.cfg.NumESTs)
	for slot, ranks := range d.placement.Assignment {
		for _, r := range ranks {
			rankHost[r] = slot + 1
		}
	}
	sources := make([]int, len(d.dirM.Entries))
	rr := 0
	for i, e := range d.dirM.Entries {
		if r, ok := checkpoint.ESTShardRank(e.ID); ok {
			if r >= len(rankHost) || rankHost[r] == 0 {
				return nil, fmt.Errorf("dist: no old worker hosted virtual rank %d", r)
			}
			sources[i] = rankHost[r] - 1
		} else if e.ID == checkpoint.MetaShardID {
			sources[i] = 0
		} else {
			sources[i] = rr % oldN
			rr++
		}
	}
	return sources, nil
}
