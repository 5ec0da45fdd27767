package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

// EST context wire format for the distributed runtime. An EST shard carries
// everything that is private to one virtual rank — its framework RNG bundle,
// its replica-local implicit model state, and its data-loader cursor — which
// is exactly the state that must move when an EST migrates between workers.
// The same encoding backs the est/NNNN checkpoint shards, the follower→leader
// context shipping at phase boundaries, and live worker-to-worker migration:
// one codec, one bitwise contract.

// encodeESTGroup serializes one EST's shard payload into w.
func encodeESTGroup(w *checkpoint.Writer, est *ESTContext, cursor int) {
	w.PutInt(est.VirtualRank)
	bs := est.RNG.State()
	w.PutRNGState(bs.Python)
	w.PutRNGState(bs.NumPy)
	w.PutRNGState(bs.Torch)
	w.PutInt(len(est.ModelState))
	for _, st := range est.ModelState {
		w.PutTensor(st)
	}
	w.PutInt(cursor)
}

// decodeESTGroup installs an EST shard payload into est, returning the
// encoded rank and data cursor for the caller to validate and apply.
func decodeESTGroup(r *checkpoint.Reader, est *ESTContext) (rank, cursor int, err error) {
	rank, _ = r.Int()
	var bs rng.BundleState
	bs.Python, _ = r.RNGState()
	bs.NumPy, _ = r.RNGState()
	bs.Torch, _ = r.RNGState()
	// r's errors are sticky: one check covers the reads above
	if n, err := r.Int(); err != nil || n != len(est.ModelState) {
		return 0, 0, fmt.Errorf("core: EST context model state mismatch")
	}
	// RNG is installed only after the counts check; tensor decodes below
	// write directly into the context, so a corrupt later tensor can leave
	// earlier ones applied — callers treat any error as "context unusable"
	est.RNG.SetState(bs)
	for _, st := range est.ModelState {
		if err := r.TensorInto(st); err != nil {
			return 0, 0, err
		}
	}
	cursor, err = r.Int()
	return rank, cursor, err
}

// ExportESTContext serializes EST rank's context — the payload of the
// est/NNNN shard: RNG bundle, implicit model state, and data cursor.
func (j *Job) ExportESTContext(rank int) []byte {
	var w checkpoint.Writer
	encodeESTGroup(&w, j.ests[rank], j.loader.State().NextStep[rank])
	return w.Bytes()
}

// ImportESTContext installs a context exported by the EST's hosting worker,
// advancing this job's data-loader cursor for that rank to the exported
// position (materialize-and-discard, bitwise what the host consumed). The
// rank must match the shard's encoded rank, and the cursor may only move
// forward.
func (j *Job) ImportESTContext(data []byte) error {
	// the rank is read ahead, to find the context the payload decodes into
	rank, err := checkpoint.NewReader(data).Int()
	if err != nil {
		return err
	}
	if rank < 0 || rank >= len(j.ests) {
		return fmt.Errorf("core: EST context for rank %d out of range", rank)
	}
	_, cursor, err := decodeESTGroup(checkpoint.NewReader(data), j.ests[rank])
	if err != nil {
		return err
	}
	return j.advanceCursor(rank, cursor)
}

// advanceCursor validates and applies an imported data-loader cursor.
func (j *Job) advanceCursor(rank, cursor int) error {
	if cursor < 0 || cursor > j.sampler.StepsPerEpoch() {
		return fmt.Errorf("core: EST %d cursor %d out of range", rank, cursor)
	}
	if have := j.loader.State().NextStep[rank]; cursor < have {
		return fmt.Errorf("core: EST %d cursor %d behind local position %d", rank, cursor, have)
	}
	j.loader.AdvanceTo(rank, cursor)
	return nil
}

// SyncDataCursors materializes-and-discards the mini-batches of ESTs this
// process did not execute, bringing the data loader to the canonical global
// position before an on-demand checkpoint. Virtual data-worker streams are
// deterministic, so the resulting state is bitwise what the hosting workers
// computed.
func (j *Job) SyncDataCursors() {
	for r := range j.ests {
		j.loader.AdvanceTo(r, j.step)
	}
}
