package dist

import (
	"fmt"
	"net"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pool"
)

// injectFault consults the worker's injector at a site. A Crash closes the
// given connections and returns an error wrapping faults.ErrInjectedCrash; a
// ConnDrop closes them silently so the failure surfaces on the next I/O; a
// Delay stalls in place.
func injectFault(in *faults.Injector, site faults.Site, conns ...net.Conn) error {
	act, d := in.Check(site)
	switch act {
	case faults.Crash:
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return fmt.Errorf("dist: %w at %s", faults.ErrInjectedCrash, site)
	case faults.ConnDrop:
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	case faults.Delay:
		time.Sleep(d)
	}
	return nil
}

// fnvHash folds a string FNV-64 style, for deriving per-worker jitter seeds.
func fnvHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// encodeGrads packs one worker's full contribution for a step: every hosted
// EST's flattened bucket buffers, tagged by virtual rank.
func encodeGrads(step int, bufs map[int][][]float32, order []int) []byte {
	w := checkpoint.NewWriter()
	w.PutInt(step)
	w.PutInt(len(order))
	for _, vrank := range order {
		w.PutInt(vrank)
		buckets := bufs[vrank]
		w.PutInt(len(buckets))
		for _, b := range buckets {
			w.PutFloat32s(b)
		}
	}
	return w.Bytes()
}

func decodeGrads(data []byte) (step int, byRank map[int][][]float32, err error) {
	r := checkpoint.NewReader(data)
	if step, err = r.Int(); err != nil {
		return
	}
	var nr int
	if nr, err = r.Int(); err != nil {
		return
	}
	// every rank entry needs at least its vrank and bucket-count words, so
	// a count beyond Remaining()/16 is corruption, not data — reject it
	// before it turns into an allocation bomb
	if nr < 0 || nr > r.Remaining()/16 {
		return 0, nil, fmt.Errorf("dist: grads frame declares %d ranks in %d bytes", nr, r.Remaining())
	}
	byRank = make(map[int][][]float32, nr)
	for i := 0; i < nr; i++ {
		var vrank, nb int
		if vrank, err = r.Int(); err != nil {
			return
		}
		if _, dup := byRank[vrank]; dup {
			return 0, nil, fmt.Errorf("dist: duplicate virtual rank %d in grads frame", vrank)
		}
		if nb, err = r.Int(); err != nil {
			return
		}
		if nb < 0 || nb > r.Remaining()/8 {
			return 0, nil, fmt.Errorf("dist: grads frame declares %d buckets in %d bytes", nb, r.Remaining())
		}
		buckets := make([][]float32, nb)
		for b := range buckets {
			if buckets[b], err = r.Float32s(); err != nil {
				return
			}
		}
		byRank[vrank] = buckets
	}
	return
}

func encodeBuckets(buckets [][]float32) []byte {
	w := checkpoint.NewWriter()
	w.PutInt(len(buckets))
	for _, b := range buckets {
		w.PutFloat32s(b)
	}
	return w.Bytes()
}

func decodeBuckets(data []byte) ([][]float32, error) {
	r := checkpoint.NewReader(data)
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Remaining()/8 {
		return nil, fmt.Errorf("dist: buckets frame declares %d buckets in %d bytes", n, r.Remaining())
	}
	out := make([][]float32, n)
	for i := range out {
		if out[i], err = r.Float32s(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// localBuckets flattens the bucket buffers of every EST this worker hosts.
func localBuckets(job *core.Job, ranks []int) map[int][][]float32 {
	ddp := job.DDP()
	out := map[int][][]float32{}
	for _, r := range ranks {
		set := job.ESTGradientSet(r)
		bufs := make([][]float32, ddp.NumBuckets())
		for b := range bufs {
			bufs[b] = ddp.FlattenBucket(b, set)
		}
		out[r] = bufs
	}
	return out
}

// follower is a leader-side handle on one admitted follower: its connection
// and the exact virtual-rank set it is responsible for.
type follower struct {
	conn   net.Conn
	worker int
	expect map[int]bool
}

// mergeGrads validates one follower's decoded contribution against its
// assigned virtual ranks — exactly its own set, no duplicates (decodeGrads
// rejects those), nothing missing, every rank with the full bucket count —
// and merges it into sets. Without this, a misbehaving or misrouted frame
// could silently overwrite another EST's gradients or leave a nil slot that
// panics in the reduce loop.
func mergeGrads(f follower, byRank map[int][][]float32, sets map[int][][]float32, numBuckets int) error {
	if len(byRank) != len(f.expect) {
		return fmt.Errorf("dist: worker %d sent %d EST contributions, expected %d", f.worker, len(byRank), len(f.expect))
	}
	for vrank, bufs := range byRank {
		if !f.expect[vrank] {
			return fmt.Errorf("dist: worker %d sent gradients for virtual rank %d it does not host", f.worker, vrank)
		}
		if len(bufs) != numBuckets {
			return fmt.Errorf("dist: worker %d rank %d sent %d buckets, expected %d", f.worker, vrank, len(bufs), numBuckets)
		}
		sets[vrank] = bufs
	}
	return nil
}

// leaderSteps runs the leader's side of a phase's global steps over an
// admitted follower set: per step gather every EST's buckets, reduce in
// canonical virtual order, broadcast, finish. extraConns (the control
// connection) are closed alongside follower connections when an injected
// crash fires.
func leaderSteps(job *core.Job, tr *obs.Tracer, inj *faults.Injector, p core.Placement, followers []follower, extraConns []net.Conn, steps, track, world int) error {
	own := p.Assignment[0]
	allConns := func() []net.Conn {
		cs := append([]net.Conn(nil), extraConns...)
		for _, f := range followers {
			cs = append(cs, f.conn)
		}
		return cs
	}

	ddp := job.DDP()
	contribs := make([][]float32, world)
	var reduced [][]float32
	for s := 0; s < steps; s++ {
		if s == 0 {
			// the downtime clock stops at the earliest dist.first-step across
			// all workers: the cluster is no longer idle once any reconfigured
			// worker begins the first post-scale step (each worker emits this
			// only after it is restored and attached). Scale-event downtime =
			// that minus the driver's dist.scale-trigger timestamp; followers
			// emit the same instant in followerSteps.
			tr.Instant(track, obs.CatPhase, "dist.first-step", int64(job.GlobalStep()), 0)
		}
		if err := job.RunLocalPhase(0); err != nil {
			return err
		}
		sets := localBuckets(job, own)
		if err := injectFault(inj, faults.Gather, allConns()...); err != nil {
			return err
		}
		// gather: exactly one MsgGrads frame per follower per step
		tGather := tr.Now()
		for _, f := range followers {
			payload, err := Expect(f.conn, MsgGrads)
			if err != nil {
				return fmt.Errorf("dist: leader gather: %w", err)
			}
			step, byRank, err := decodeGrads(payload)
			if err != nil {
				return err
			}
			if step != s {
				return fmt.Errorf("dist: step skew: follower at %d, leader at %d", step, s)
			}
			if err := mergeGrads(f, byRank, sets, ddp.NumBuckets()); err != nil {
				return err
			}
		}
		// the placement covers every virtual rank, and each follower was
		// validated against its own slice of it — but verify closure before
		// the reduce indexes into the sets
		for v := 0; v < world; v++ {
			if sets[v] == nil {
				return fmt.Errorf("dist: no gradient contribution for virtual rank %d", v)
			}
		}
		tr.Span(track, obs.CatNet, "net.gather", tGather, int64(s), int64(len(followers)))
		// reduce each bucket over virtual ranks 0..W-1 in canonical order,
		// through the reduce the in-process step uses
		tReduce := tr.Now()
		reduced = reduced[:0]
		for b := 0; b < ddp.NumBuckets(); b++ {
			for v := range contribs {
				contribs[v] = sets[v][b]
			}
			reduced = append(reduced, comm.ReduceAverage(contribs, world))
		}
		// the local flatten buffers are arena-backed (FlattenBucket) and done
		// with; follower buffers were decoded from network frames and are not
		for _, r := range own {
			for _, buf := range sets[r] {
				pool.Put(buf)
			}
		}
		tr.Span(track, obs.CatComm, "net.reduce", tReduce, int64(s), int64(world))
		if err := injectFault(inj, faults.Broadcast, allConns()...); err != nil {
			return err
		}
		tBcast := tr.Now()
		payload := encodeBuckets(reduced)
		for _, f := range followers {
			if err := WriteFrame(f.conn, MsgReduced, payload); err != nil {
				return err
			}
		}
		tr.Span(track, obs.CatNet, "net.broadcast", tBcast, int64(s), int64(len(payload)))
		if err := job.FinishStepReduced(reduced); err != nil {
			return err
		}
		for _, buf := range reduced {
			pool.Put(buf)
		}
	}
	return nil
}

// leaderCollectContexts imports every follower's hosted EST contexts (one
// MsgCkpt frame each, closed by MsgDone) and brings the data loader to the
// canonical cursor — after it, the leader's job state is the full canonical
// job state of the global step.
func leaderCollectContexts(job *core.Job, followers []follower) error {
	for _, f := range followers {
		for {
			t, payload, err := ReadFrame(f.conn)
			if err != nil {
				return err
			}
			if t == MsgDone {
				break
			}
			if t != MsgCkpt {
				return fmt.Errorf("dist: leader expected EST context, got %d", t)
			}
			if err := job.ImportESTContext(payload); err != nil {
				return err
			}
		}
	}
	job.SyncDataCursors()
	return nil
}

// followerSteps runs a non-leader's side of a phase's global steps against
// an established leader connection.
func followerSteps(job *core.Job, tr *obs.Tracer, inj *faults.Injector, p core.Placement, rank int, leader net.Conn, extraConns []net.Conn, steps, track int) error {
	own := p.Assignment[rank]
	conns := append([]net.Conn{leader}, extraConns...)
	for s := 0; s < steps; s++ {
		if s == 0 {
			// see leaderSteps: the earliest first-step across all workers ends
			// the scale event's downtime window
			tr.Instant(track, obs.CatPhase, "dist.first-step", int64(job.GlobalStep()), 0)
		}
		if err := job.RunLocalPhase(rank); err != nil {
			return err
		}
		bufs := localBuckets(job, own)
		if err := injectFault(inj, faults.Gather, conns...); err != nil {
			return err
		}
		tSend := tr.Now()
		frame := encodeGrads(s, bufs, own)
		// encodeGrads copied the buckets into the frame; return the
		// arena-backed flatten buffers before the write
		for _, bs := range bufs {
			for _, buf := range bs {
				pool.Put(buf)
			}
		}
		if err := WriteFrame(leader, MsgGrads, frame); err != nil {
			return err
		}
		tr.Span(track, obs.CatNet, "net.send-grads", tSend, int64(s), int64(len(frame)))
		if err := injectFault(inj, faults.Broadcast, conns...); err != nil {
			return err
		}
		tWait := tr.Now()
		payload, err := Expect(leader, MsgReduced)
		if err != nil {
			return err
		}
		tr.Span(track, obs.CatNet, "net.wait-reduced", tWait, int64(s), int64(len(payload)))
		reduced, err := decodeBuckets(payload)
		if err != nil {
			return err
		}
		if err := job.FinishStepReduced(reduced); err != nil {
			return err
		}
	}
	return nil
}

// followerShipContexts ships the hosted EST contexts to the leader for
// checkpoint assembly, closing with MsgDone.
func followerShipContexts(job *core.Job, leader net.Conn, own []int) error {
	for _, r := range own {
		if err := WriteFrame(leader, MsgCkpt, job.ExportESTContext(r)); err != nil {
			return err
		}
	}
	return WriteFrame(leader, MsgDone, nil)
}
