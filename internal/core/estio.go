package core

import (
	"fmt"

	"repro/internal/checkpoint"
)

// EST context wire format for the distributed runtime. An EST shard carries
// everything that is private to one virtual rank — its framework RNG bundle,
// its replica-local implicit model state, and its data-loader cursor — which
// is exactly the state that must move when an EST migrates between workers.
// The same encoding backs the est/NNNN checkpoint shards, the follower→leader
// context shipping at phase boundaries, and live worker-to-worker migration:
// one codec, one bitwise contract. Its head is checkpoint.ESTHead; the state
// tensors and the cursor follow it.

// encodeESTGroup serializes one EST's shard payload into w.
func encodeESTGroup(w *checkpoint.Writer, est *ESTContext, cursor int) {
	checkpoint.PutESTHead(w, checkpoint.ESTHead{Rank: est.VirtualRank, RNG: est.RNG.State(), States: len(est.ModelState)})
	for _, st := range est.ModelState {
		w.PutTensor(st)
	}
	w.PutInt(cursor)
}

// decodeESTGroup installs the rest of an EST shard payload, whose head h the
// caller has read from r, into est, returning the data cursor for the caller
// to validate and apply.
func decodeESTGroup(r *checkpoint.Reader, h checkpoint.ESTHead, est *ESTContext) (cursor int, err error) {
	if h.States != len(est.ModelState) {
		return 0, fmt.Errorf("core: EST context model state mismatch")
	}
	// RNG is installed only after the counts check; tensor decodes below
	// write directly into the context, so a corrupt later tensor can leave
	// earlier ones applied — callers treat any error as "context unusable"
	est.RNG.SetState(h.RNG)
	for _, st := range est.ModelState {
		if err := r.TensorInto(st); err != nil {
			return 0, err
		}
	}
	return r.Int()
}

// ExportESTContext appends EST rank's context to w — the payload of the
// est/NNNN shard: RNG bundle, implicit model state, and data cursor.
func (j *Job) ExportESTContext(w *checkpoint.Writer, rank int) {
	encodeESTGroup(w, j.ests[rank], j.loader.Cursor(rank))
}

// ImportESTContext installs a context exported by the EST's hosting worker,
// read off r, advancing this job's data-loader cursor for that rank to the
// exported position (materialize-and-discard, bitwise what the host
// consumed). The rank must match the shard's encoded rank, and the cursor may
// only move forward. r is left behind the context, where the next may start.
func (j *Job) ImportESTContext(r *checkpoint.Reader) error {
	// the head names the context the rest of the payload decodes into
	h, err := checkpoint.ReadESTHead(r)
	if err != nil {
		return err
	}
	if h.Rank < 0 || h.Rank >= len(j.ests) {
		return fmt.Errorf("core: EST context for rank %d out of range", h.Rank)
	}
	cursor, err := decodeESTGroup(r, h, j.ests[h.Rank])
	if err != nil {
		return err
	}
	return j.advanceCursor(h.Rank, cursor)
}

// advanceCursor validates and applies an imported data-loader cursor.
func (j *Job) advanceCursor(rank, cursor int) error {
	if cursor < 0 || cursor > j.sampler.StepsPerEpoch() {
		return fmt.Errorf("core: EST %d cursor %d out of range", rank, cursor)
	}
	if have := j.loader.Cursor(rank); cursor < have {
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
