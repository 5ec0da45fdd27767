package dist

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
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
	if act == faults.Crash || act == faults.ConnDrop {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	switch act {
	case faults.Crash:
		return fmt.Errorf("dist: %w at %s", faults.ErrInjectedCrash, site)
	case faults.Delay:
		time.Sleep(d)
	}
	return nil
}

// The per-step gradient codecs. A follower's MsgGrads payload is step, rank
// count, then per rank vrank, bucket count, buckets; the leader's MsgReduced
// payload a bucket count and the buckets. Both sides encode into a
// connection's frame buffer and decode into arena buffers of exactly the
// plan's bucket lengths, so a steady-state step allocates nothing and a frame
// whose shape disagrees with the plan fails at decode, before the reduce can
// index or panic on it. The codecs are //easyscale:hotpath, hence the fixed
// errors; their callers add who sent the frame.
var (
	errGradsRanks  = errors.New("dist: grads frame does not carry exactly the virtual ranks its sender hosts")
	errBucketCount = errors.New("dist: frame does not carry the plan's number of buckets")
)

// gradTable holds the arena buffers of one global step. On the leader
// bufs[vrank][b] is rank vrank's flattened bucket b — flattened locally for
// its own ESTs, decoded off the wire for the followers' — and have[vrank] says
// the rank has contributed; a follower's table has no ranks. reduced[b] is
// averaged bucket b; lens, the plan's bucket lengths, is what decodes must match.
type gradTable struct {
	lens    []int
	have    []bool
	bufs    [][][]float32
	reduced [][]float32
}

// prepare sizes an empty table for the current plan; it allocates only when
// that changed, which it can once, at the end of a job's first step.
func (t *gradTable) prepare(ddp *comm.ElasticDDP) {
	nb := ddp.NumBuckets()
	t.lens = slices.Grow(t.lens[:0], nb)[:nb]
	for b := range t.lens {
		t.lens[b] = ddp.BucketLen(b)
	}
	t.reduced = slices.Grow(t.reduced[:0], nb)[:nb]
	for v, row := range t.bufs {
		t.bufs[v] = slices.Grow(row[:0], nb)[:nb]
	}
}

// release returns every buffer the table holds to the arena and empties it.
//
//easyscale:hotpath
func (t *gradTable) release() {
	for v, row := range t.bufs {
		t.have[v] = false
		putAll(row)
	}
	putAll(t.reduced)
}

// putAll returns arena buffers to the arena, leaving nil in their places.
//
//easyscale:hotpath
func putAll(bufs [][]float32) {
	for b, buf := range bufs {
		pool.Put(buf)
		bufs[b] = nil
	}
}

// encodeGrads packs one worker's contribution for a step into w: every hosted
// EST's buckets, tagged by virtual rank, each flattened into an arena buffer
// that goes straight back.
//
//easyscale:hotpath
func encodeGrads(w *checkpoint.Writer, step int, job *core.Job, ranks []int) {
	ddp := job.DDP()
	perRank := 2 * 8 // vrank, bucket count
	for b := 0; b < ddp.NumBuckets(); b++ {
		perRank += 8 + 4*ddp.BucketLen(b)
	}
	w.Grow(2*8 + len(ranks)*perRank) // a frame buffer that has to grow grows once
	w.PutInt(step)
	w.PutInt(len(ranks))
	for _, vrank := range ranks {
		set := job.ESTGradientSet(vrank)
		w.PutInt(vrank)
		w.PutInt(ddp.NumBuckets())
		for b := 0; b < ddp.NumBuckets(); b++ {
			buf := ddp.FlattenBucket(b, set)
			w.PutFloat32s(buf)
			pool.Put(buf)
		}
	}
}

// decodeGrads decodes one follower's MsgGrads payload into t, validating it
// against ranks, the follower's slice of the placement: exactly those ranks,
// none twice, each with the plan's bucket count and lengths. Otherwise a
// misbehaving or misrouted frame could overwrite another EST's gradients, leave
// a nil slot, or hand the reduce a short bucket. On error t may hold part of
// the frame; release reclaims it.
//
//easyscale:hotpath
func decodeGrads(payload []byte, ranks []int, t *gradTable) (step int, err error) {
	r := checkpoint.NewReader(payload)
	step, _ = r.Int()
	// no rank twice, no foreign rank, and the follower's count: its set exactly
	if nr, err := r.Int(); err != nil || nr != len(ranks) {
		return 0, cmp.Or(err, errGradsRanks)
	}
	for range ranks {
		vrank, err := r.Int()
		if err != nil {
			return 0, err
		}
		if vrank < 0 || vrank >= len(t.bufs) || !slices.Contains(ranks, vrank) || t.have[vrank] {
			return 0, errGradsRanks // a foreign rank, or one of its own twice
		}
		t.have[vrank] = true
		if err := readBuckets(r, t.lens, t.bufs[vrank]); err != nil {
			return 0, err
		}
	}
	return step, nil
}

// readBuckets decodes a bucket count, which must be len(lens), and the buckets
// into arena buffers of those lengths, stored in dst's nil slots: a rank's
// part of a MsgGrads payload, all of a MsgReduced one. On error dst holds
// what was borrowed so far.
//
//easyscale:hotpath
func readBuckets(r *checkpoint.Reader, lens []int, dst [][]float32) error {
	if nb, err := r.Int(); err != nil || nb != len(lens) {
		return cmp.Or(err, errBucketCount)
	}
	for b, n := range lens {
		dst[b] = pool.GetUninit(n)
		if err := r.Float32sInto(dst[b]); err != nil {
			return err
		}
	}
	return nil
}

// encodeBuckets packs the averaged buckets of a step into w.
//
//easyscale:hotpath
func encodeBuckets(w *checkpoint.Writer, buckets [][]float32) {
	size := 8
	for _, b := range buckets {
		size += 8 + 4*len(b)
	}
	w.Grow(size)
	w.PutInt(len(buckets))
	for _, b := range buckets {
		w.PutFloat32s(b)
	}
}

// follower is a leader-side handle on one admitted follower: its connection
// and the virtual ranks it is responsible for, its slice of the placement.
type follower struct {
	conn   *conn
	worker int
	ranks  []int
}

// leaderSteps runs the leader's side of a phase's global steps over an
// admitted follower set: per step gather every EST's buckets, reduce in
// canonical virtual order, broadcast, finish. allConns — ctrl, the control
// connection, and the followers' — are closed when an injected crash fires.
func leaderSteps(job *core.Job, tr *obs.Tracer, inj *faults.Injector, p core.Placement, followers []follower, ctrl *conn, allConns []net.Conn, steps, track, world int) error {
	own := p.Assignment[0]
	ddp := job.DDP()
	contribs := make([][]float32, world)
	table := &gradTable{have: make([]bool, world), bufs: make([][][]float32, world)}
	defer table.release() // whatever an error return leaves borrowed
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
		table.prepare(ddp)
		for _, r := range own {
			for b := range table.lens {
				table.bufs[r][b] = ddp.FlattenBucket(b, job.ESTGradientSet(r))
			}
			table.have[r] = true
		}
		if err := injectFault(inj, faults.Gather, allConns...); err != nil {
			return err
		}
		// gather: one MsgGrads frame per follower per step, decoded out of
		// the connection's read buffer before the next read reuses it
		tGather := tr.Now()
		for _, f := range followers {
			payload, err := Expect(f.conn, MsgGrads)
			if err != nil {
				return fmt.Errorf("dist: leader gather: %w", err)
			}
			step, err := decodeGrads(payload, f.ranks, table)
			if err != nil {
				return fmt.Errorf("dist: gradients of worker %d (virtual ranks %v): %w", f.worker, f.ranks, err)
			}
			if step != s {
				return fmt.Errorf("dist: step skew: follower at %d, leader at %d", step, s)
			}
		}
		// the placement covers every virtual rank, and each follower was
		// validated against its own slice of it — but verify closure before
		// the reduce indexes into the table
		for v, have := range table.have {
			if !have {
				return fmt.Errorf("dist: no gradient contribution for virtual rank %d", v)
			}
		}
		tr.Span(track, obs.CatNet, "net.gather", tGather, int64(s), int64(len(followers)))
		// reduce each bucket over virtual ranks 0..W-1 in canonical order,
		// through the reduce the in-process step uses
		tReduce := tr.Now()
		for b := range table.reduced {
			for v := range contribs {
				contribs[v] = table.bufs[v][b]
			}
			table.reduced[b] = comm.ReduceAverage(contribs, world)
		}
		tr.Span(track, obs.CatComm, "net.reduce", tReduce, int64(s), int64(world))
		if err := injectFault(inj, faults.Broadcast, allConns...); err != nil {
			return err
		}
		tBcast := tr.Now()
		// one frame for all followers, built in the control connection's
		// frame buffer, which is idle while a phase steps
		encodeBuckets(ctrl.begin(), table.reduced)
		for _, f := range followers {
			if err := ctrl.sendTo(f.conn, MsgReduced); err != nil {
				return err
			}
		}
		tr.Span(track, obs.CatNet, "net.broadcast", tBcast, int64(s), int64(ctrl.payloadLen()))
		if err := job.FinishStepReduced(table.reduced); err != nil {
			return err
		}
		table.release()
	}
	return nil
}

// leaderCollectContexts imports every follower's hosted EST contexts (one
// MsgCkpt frame each) and brings the data loader to the canonical cursor —
// after it, the leader's job state is the full canonical job state of the
// global step.
func leaderCollectContexts(job *core.Job, followers []follower) error {
	for _, f := range followers {
		payload, err := Expect(f.conn, MsgCkpt)
		if err != nil {
			return err
		}
		r := checkpoint.NewReader(payload)
		if n, err := r.Int(); err != nil || n != len(f.ranks) {
			return fmt.Errorf("dist: worker %d shipped %d EST contexts for its %d ranks", f.worker, n, len(f.ranks))
		}
		for range f.ranks {
			// ImportESTContext decodes into the job's tensors and keeps
			// nothing of payload: the read buffer needs no copy
			if err := job.ImportESTContext(r); err != nil {
				return err
			}
		}
	}
	job.SyncDataCursors()
	return nil
}

// followerSteps runs a non-leader's side of a phase's global steps against
// an established leader connection.
func followerSteps(job *core.Job, tr *obs.Tracer, inj *faults.Injector, p core.Placement, rank int, leader *conn, ctrl net.Conn, steps, track int) error {
	own := p.Assignment[rank]
	table := &gradTable{}
	defer table.release() // whatever an error return leaves borrowed
	for s := 0; s < steps; s++ {
		if s == 0 {
			// see leaderSteps: the earliest first-step across all workers ends
			// the scale event's downtime window
			tr.Instant(track, obs.CatPhase, "dist.first-step", int64(job.GlobalStep()), 0)
		}
		if err := job.RunLocalPhase(rank); err != nil {
			return err
		}
		if err := injectFault(inj, faults.Gather, leader, ctrl); err != nil {
			return err
		}
		tSend := tr.Now()
		encodeGrads(leader.begin(), s, job, own)
		if err := leader.send(MsgGrads); err != nil {
			return err
		}
		tr.Span(track, obs.CatNet, "net.send-grads", tSend, int64(s), int64(leader.payloadLen()))
		if err := injectFault(inj, faults.Broadcast, leader, ctrl); err != nil {
			return err
		}
		tWait := tr.Now()
		payload, err := Expect(leader, MsgReduced)
		if err != nil {
			return err
		}
		tr.Span(track, obs.CatNet, "net.wait-reduced", tWait, int64(s), int64(len(payload)))
		// decoded out of the read buffer before the next step's read reuses it
		table.prepare(job.DDP())
		if err := readBuckets(checkpoint.NewReader(payload), table.lens, table.reduced); err != nil {
			return fmt.Errorf("dist: reduced buckets: %w", err)
		}
		if err := job.FinishStepReduced(table.reduced); err != nil {
			return err
		}
		table.release()
	}
	return nil
}

// followerShipContexts ships the hosted EST contexts to the leader for
// checkpoint assembly: one MsgCkpt frame, a count and then the contexts back
// to back, encoded in place.
func followerShipContexts(job *core.Job, leader *conn, own []int) error {
	w := leader.begin()
	w.PutInt(len(own))
	for _, r := range own {
		job.ExportESTContext(w, r)
	}
	return leader.send(MsgCkpt)
}
