package core

import (
	"fmt"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// groupIDs is a job's table of indexed group identifiers: BuildShards and
// restore name a hundred groups per call.
type groupIDs struct{ param, moment, est []string }

// idTables holds every group ID formatted so far, per kind. The i-th ID of a
// kind is the same string in every job, so a job's table is a prefix of the
// shared one and only the first job of a size formats anything.
var idTables struct {
	sync.Mutex
	param, moment, est []string
}

func newGroupIDs(params, moments, ests int) groupIDs {
	t := &idTables
	t.Lock()
	defer t.Unlock()
	table := func(tbl *[]string, id func(int) string, n int) []string {
		if have := len(*tbl); have < n {
			grown := make([]string, n)
			copy(grown, *tbl)
			for i := have; i < n; i++ {
				grown[i] = id(i)
			}
			*tbl = grown
		}
		return (*tbl)[:n:n]
	}
	return groupIDs{table(&t.param, checkpoint.ParamShardID, params), table(&t.moment, checkpoint.MomentShardID, moments), table(&t.est, checkpoint.ESTShardID, ests)}
}

// BuildShards cuts the job's full checkpoint state into content-addressed
// shards and returns the manifest plus a store holding every referenced
// shard. Every group is encoded on every call and addressed by the hash of
// its bytes; the encoder is deterministic, so unchanged state yields an
// identical manifest and a peer holding the previous shards needs only
// Manifest.Diff — the job remembers nothing between calls.
//
// The groups fill one buffer of exactly their summed size, in manifest order,
// and each shard is a capped view of it: the irregular meta and EST groups are
// sized by encoding them into the job's scratch first.
func (j *Job) BuildShards() (checkpoint.Manifest, *checkpoint.ShardSet) {
	params, moments := j.replicas[0].params, j.opt.StateTensors()
	m := checkpoint.Manifest{Progress: int64(j.globalStep), Entries: make([]checkpoint.ManifestEntry, 0, 1+len(params)+len(moments)+len(j.ests))}
	add := func(id string, n int) { m.Entries = append(m.Entries, checkpoint.ManifestEntry{ID: id, Len: n}) }
	sc := &j.shardScratch
	sc.Reset(0)
	j.encodeMetaGroup(sc)
	add(checkpoint.MetaShardID, sc.Len())
	for i, p := range params {
		add(j.ids.param[i], checkpoint.TensorLen(p.Value))
	}
	for i, mom := range moments {
		add(j.ids.moment[i], checkpoint.TensorLen(mom))
	}
	metaLen := sc.Len()
	for r, est := range j.ests {
		start := sc.Len()
		encodeESTGroup(sc, est, j.loader.Cursor(r))
		add(j.ids.est[r], sc.Len()-start)
	}

	var w checkpoint.Writer
	w.Grow(m.TotalLen())
	w.PutRaw(sc.Bytes()[:metaLen])
	for _, p := range params {
		w.PutTensor(p.Value)
	}
	for _, mom := range moments {
		w.PutTensor(mom)
	}
	w.PutRaw(sc.Bytes()[metaLen:])
	set := checkpoint.NewShardSet(len(m.Entries))
	buf := w.Bytes()
	for i := range m.Entries {
		e := &m.Entries[i]
		e.Hash = set.Put(buf[:e.Len:e.Len])
		buf = buf[e.Len:]
	}
	return m, set
}

// encodeMetaGroup serializes the checkpoint's "extra states" (§3.2): job
// identity, training progress, optimizer scalars, LR scheduler, data-loader
// worker states, and the gradient-bucket mapping.
func (j *Job) encodeMetaGroup(w *checkpoint.Writer) {
	checkpoint.PutJobMeta(w, checkpoint.JobMeta{
		Name: j.Workload.Name, JobConfig: j.Cfg.recorded(),
		Epoch: j.epoch, Step: j.step, GlobalStep: j.globalStep,
		// group counts, so restore can cross-check the manifest against the model
		Params: len(j.replicas[0].params), Moments: len(j.opt.StateTensors()), ESTs: len(j.ests),
	})

	// optimizer scalars + LR scheduler
	w.PutInt(j.opt.StepCount())
	w.PutFloat64(j.opt.LR())
	if j.sched != nil {
		w.PutInt(j.sched.Epoch())
	} else {
		w.PutInt(-1)
	}

	// data loader extra state, read off the loader as data.State lays it
	// out: the epoch, the cursors (as PutInts writes them), then each EST's
	// row of virtual worker streams
	l := j.loader
	w.PutInt(l.Epoch())
	w.PutInt(len(j.ests))
	for r := range j.ests {
		w.PutInt(l.Cursor(r))
	}
	w.PutInt(len(j.ests))
	for r := range j.ests {
		w.PutInt(l.WorkersPerEST)
		for k := range l.WorkersPerEST {
			w.PutRNGState(l.StreamState(r, k))
		}
	}

	// gradient-bucket mapping (recorded regardless of level; only D1
	// restores it — that asymmetry is precisely the D0 failure mode)
	w.PutBool(j.ddp.Rebuilt())
	plan := j.ddp.Plan()
	w.PutInt(len(plan.Buckets))
	for _, b := range plan.Buckets {
		w.PutInts(b)
	}
}

// recorded is the part of the config a checkpoint records and a restore must
// match.
func (c Config) recorded() checkpoint.JobConfig {
	return checkpoint.JobConfig{Seed: c.Seed, NumESTs: c.NumESTs, BatchPerEST: c.BatchPerEST, Level: int(c.Level), D2Block: c.d2Block(), D2: c.D2}
}

// Checkpoint captures the job's on-demand checkpoint (§3.2, Figure 6) as a
// self-contained shard container: the contexts of all ESTs, the extra
// states, and the parameters, cut into content-addressed shards behind a
// manifest. Only one replica of the extra states and parameters is stored —
// they are shared across ESTs within a global step.
func (j *Job) Checkpoint() []byte {
	m, set := j.BuildShards()
	b, err := checkpoint.EncodeContainer(m, set)
	if err != nil {
		// BuildShards stores every shard it references
		panic("core: checkpoint container inconsistent: " + err.Error())
	}
	return b
}

// RestoreJob reconstructs a job from an on-demand checkpoint container. The
// caller supplies the same Config; identity fields are cross-checked against
// the checkpoint. The restored job is detached — Attach it to its new
// resources.
func RestoreJob(cfg Config, ckpt []byte) (*Job, error) {
	m, set, err := checkpoint.DecodeContainer(ckpt)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint corrupted: %w", err)
	}
	return RestoreJobShards(cfg, m, set)
}

// RestoreJobShards reconstructs a job from a manifest and a shard store that
// covers it — the multi-peer restore path, where the store was assembled
// from shards fetched off several peers in arbitrary order. Decoding walks
// the manifest in canonical group order, so the result is independent of how
// the store was filled. The job's net is built without weight init: every
// parameter, moment and EST context is overwritten from the shards, whose
// group counts are checked against the model's.
func RestoreJobShards(cfg Config, m checkpoint.Manifest, set *checkpoint.ShardSet) (*Job, error) {
	groups := checkpoint.NewJobGroups(m, set)
	meta, r, err := groups.Meta()
	if err != nil {
		return nil, err
	}
	if meta.JobConfig != cfg.recorded() {
		return nil, fmt.Errorf("core: checkpoint identity mismatch (ckpt %+v, config %+v)", meta.JobConfig, cfg.recorded())
	}

	j, err := newJob(cfg, meta.Name, models.BuildBlank)
	if err != nil {
		return nil, err
	}
	params, momentum := j.replicas[0].params, j.opt.StateTensors()
	j.epoch, j.step, j.globalStep = meta.Epoch, meta.Step, meta.GlobalStep
	if j.step >= j.sampler.StepsPerEpoch() {
		return nil, fmt.Errorf("core: checkpoint step %d out of range", j.step)
	}
	if meta.Params != len(params) || meta.Moments != len(momentum) || meta.ESTs != len(j.ests) {
		return nil, fmt.Errorf("core: checkpoint has %d params, %d moments and %d ESTs, the job %d, %d and %d",
			meta.Params, meta.Moments, meta.ESTs, len(params), len(momentum), len(j.ests))
	}

	// read in runs of fields: r's errors are sticky, so each run is checked
	// once, before anything acts on what it read
	steps, _ := r.Int()
	lr, _ := r.Float64()
	schedEpoch, _ := r.Int()
	var ls data.State
	ls.Epoch, _ = r.Int()
	ls.NextStep, _ = r.Ints()
	rows, _ := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if rows != cfg.NumESTs || len(ls.NextStep) != cfg.NumESTs {
		return nil, fmt.Errorf("core: checkpoint loader geometry mismatch")
	}
	for _, c := range ls.NextStep {
		if c < 0 || c > j.sampler.StepsPerEpoch() {
			return nil, fmt.Errorf("core: checkpoint loader cursor %d out of range", c)
		}
	}
	j.opt.SetStepCount(steps)
	j.opt.SetLR(lr)
	if j.sched != nil && schedEpoch >= 0 {
		j.sched.SetEpoch(schedEpoch)
	}

	ls.Streams = make([][]rng.State, rows)
	for i := range ls.Streams {
		if cols, err := r.Int(); err != nil || cols != cfg.DataWorkersPerEST {
			return nil, fmt.Errorf("core: checkpoint data-worker geometry mismatch")
		}
		ls.Streams[i] = make([]rng.State, cfg.DataWorkersPerEST)
		for c := range ls.Streams[i] {
			ls.Streams[i][c], _ = r.RNGState()
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	j.loader.Restore(ls)

	// bucket mapping
	rebuilt, _ := r.Bool()
	nb, _ := r.Int()
	// each bucket costs at least its own 8-byte length prefix, so a count
	// beyond Remaining()/8 cannot be backed by real payload
	if r.Err() != nil || nb < 0 || nb > r.Remaining()/8 {
		return nil, fmt.Errorf("core: checkpoint bucket plan corrupt")
	}
	buckets := make([][]int, nb)
	for i := range buckets {
		if buckets[i], err = r.Ints(); err != nil {
			return nil, err
		}
	}
	if cfg.Level >= D1 && rebuilt {
		// D1: reinstate the recorded mapping (after validating it really is
		// a permutation of the parameters) and disable reconstruction
		seen := make([]bool, len(params))
		covered := 0
		for _, b := range buckets {
			for _, pi := range b {
				if pi < 0 || pi >= len(params) || seen[pi] {
					return nil, fmt.Errorf("core: checkpoint bucket plan corrupt")
				}
				seen[pi] = true
				covered++
			}
		}
		if covered != len(params) {
			return nil, fmt.Errorf("core: checkpoint bucket plan incomplete")
		}
		j.ddp.RestorePlan(comm.Plan{Buckets: buckets})
	}
	// below D1 the recorded mapping is ignored: the restarted process will
	// rebuild from its own first mini-batch — the paper's D0 divergence

	// parameters and optimizer moments, one shard each
	tensorGroup := func(id string, dst *tensor.Tensor) error {
		gr, err := groups.Open(id)
		if err != nil {
			return err
		}
		return gr.TensorInto(dst)
	}
	for i, p := range params {
		if err := tensorGroup(j.ids.param[i], p.Value); err != nil {
			return nil, err
		}
	}
	for i, mom := range momentum {
		if err := tensorGroup(j.ids.moment[i], mom); err != nil {
			return nil, err
		}
	}

	// EST contexts, one shard per virtual rank
	for want, est := range j.ests {
		h, gr, err := groups.EST(j.ids.est[want])
		if err != nil {
			return nil, err
		}
		if h.Rank != want {
			return nil, fmt.Errorf("core: checkpoint EST shard rank %d under id %q", h.Rank, j.ids.est[want])
		}
		cursor, err := decodeESTGroup(gr, h, est)
		if err != nil {
			return nil, err
		}
		if cursor != ls.NextStep[want] {
			return nil, fmt.Errorf("core: EST %d cursor %d disagrees with loader state %d", want, cursor, ls.NextStep[want])
		}
	}
	return j, nil
}

// Scale performs the elastic reconfiguration path: on-demand checkpoint,
// release the current GPUs, restart (fresh process state: layer caches,
// communication channels, kernel selections), restore, and attach to the new
// placement. The job's training semantics are unaffected; whether its
// numerics are depends on the determinism level. The new placement is
// admitted and the restart prepared before the old GPUs are released, so a
// placement that is invalid or does not fit leaves the job training where it
// was.
func (j *Job) Scale(p Placement) error {
	t0 := j.obs.now()
	devs := j.newDevices(p)
	allocMB, err := j.admit(p, devs)
	if err != nil {
		return err
	}
	nj, err := RestoreJob(j.Cfg, j.Checkpoint())
	if err != nil {
		return err
	}
	// The restart replaces every field of j, so the tracer survives the
	// reconfiguration explicitly — the trace shows the scale event and the
	// spans on both sides of it on the same tracks.
	tr := j.Tracer()
	j.Detach()
	*j = *nj
	j.SetTracer(tr)
	j.bind(p, devs, allocMB)
	j.obs.decision("core.scale", &p, int64(len(p.Devices)), int64(j.globalStep))
	j.obs.runSpan(obs.CatPhase, "core.scale", t0, int64(len(p.Devices)), int64(j.globalStep))
	return nil
}

// ScaleLive performs elastic reconfiguration without the stop-restart round
// trip: the live job keeps all of its state — parameters, moments, EST
// contexts, loader cursors, gradient-bucket plan — and only the physical
// attachment changes, once the new placement has been admitted. At D1 this is
// bitwise-equivalent to Scale, because restore is the identity on a state
// that was checkpointed an instant earlier (the equivalence the
// migrate-vs-restart tests pin); below D1 it is *stronger* than Scale, since
// the bucket plan survives instead of being rebuilt — live migration never
// re-introduces the D0 divergence.
func (j *Job) ScaleLive(p Placement) error {
	t0 := j.obs.now()
	devs := j.newDevices(p)
	allocMB, err := j.admit(p, devs)
	if err != nil {
		return err
	}
	j.Detach()
	j.bind(p, devs, allocMB)
	j.obs.decision("core.scale-live", &p, int64(len(p.Devices)), int64(j.globalStep))
	j.obs.runSpan(obs.CatPhase, "core.scale-live", t0, int64(len(p.Devices)), int64(j.globalStep))
	return nil
}
