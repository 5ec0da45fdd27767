// Job checkpoint schema: the group IDs and the group heads of the on-demand
// checkpoint a training job writes (§3.2). Training, migration and serving
// all read a job checkpoint through this file.

package checkpoint

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// jobMagic guards against foreign byte streams; jobVersion against format
// drift. Version 3 is the sharded format: the monolithic blob became a
// container of content-addressed per-group shards plus a manifest.
const (
	jobMagic   = 0xEA57_5CA1E0000000
	jobVersion = 3
)

// Group identifiers. A job's manifest lists its groups in canonical order:
// meta, then parameters, optimizer moments and EST contexts, each indexed in
// model/rank order. Readers look groups up by ID, so shard *arrival* order
// (which peer shipped what first) can never affect the decoded state.
const (
	// MetaShardID is the group of the job's extra states: the JobMeta head,
	// then optimizer, scheduler, data-loader and gradient-bucket state.
	MetaShardID = "meta"
	estPrefix   = "est/"
)

// ParamShardID returns the manifest ID of parameter group i.
func ParamShardID(i int) string { return fmt.Sprintf("param/%04d", i) }

// MomentShardID returns the manifest ID of optimizer moment group i.
func MomentShardID(i int) string { return fmt.Sprintf("moment/%04d", i) }

// ESTShardID returns the manifest ID of virtual rank r's context group.
func ESTShardID(r int) string { return fmt.Sprintf(estPrefix+"%04d", r) }

// ESTShardRank parses an EST shard ID back to its virtual rank; ok is false
// for any other group ID.
func ESTShardRank(id string) (r int, ok bool) {
	digits, ok := strings.CutPrefix(id, estPrefix)
	// canonical %04d only: at least four digits, a leading zero only as padding
	if !ok || len(digits) < 4 || (len(digits) > 4 && digits[0] == '0') {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 31)
	if err != nil {
		return 0, false
	}
	return int(n), true
}

// JobMeta is the head of the meta group: the job's identity, its progress,
// and the group counts a restore cross-checks against the model.
type JobMeta struct {
	Name string
	JobConfig
	Epoch, Step, GlobalStep int
	Params, Moments, ESTs   int
}

// JobConfig is the training configuration a checkpoint records and a restore
// must match.
type JobConfig struct {
	Seed                                 uint64
	NumESTs, BatchPerEST, Level, D2Block int
	D2                                   bool
}

// PutJobMeta writes the meta group's head: magic, version, then m.
func PutJobMeta(w *Writer, m JobMeta) {
	w.PutUint64(jobMagic)
	w.PutInt(jobVersion)
	w.PutString(m.Name)
	w.PutUint64(m.Seed)
	for _, v := range [...]int{m.NumESTs, m.BatchPerEST, m.Level} {
		w.PutInt(v)
	}
	w.PutBool(m.D2)
	for _, v := range [...]int{m.D2Block, m.Epoch, m.Step, m.GlobalStep, m.Params, m.Moments, m.ESTs} {
		w.PutInt(v)
	}
}

// readJobMeta reads what PutJobMeta wrote. A foreign magic, another version,
// a short group and a negative progress or count are all corrupt.
func readJobMeta(r *Reader) (JobMeta, error) {
	var m JobMeta
	if magic, err := r.Uint64(); err != nil || magic != jobMagic {
		return m, fmt.Errorf("%w: not an EasyScale job checkpoint", ErrCorrupt)
	}
	if v, err := r.Int(); err != nil || v != jobVersion {
		return m, fmt.Errorf("%w: unsupported job checkpoint version", ErrCorrupt)
	}
	// r's errors are sticky: one check covers the run of reads
	m.Name, _ = r.String()
	m.Seed, _ = r.Uint64()
	for _, v := range [...]*int{&m.NumESTs, &m.BatchPerEST, &m.Level} {
		*v, _ = r.Int()
	}
	m.D2, _ = r.Bool()
	for _, v := range [...]*int{&m.D2Block, &m.Epoch, &m.Step, &m.GlobalStep, &m.Params, &m.Moments, &m.ESTs} {
		*v, _ = r.Int()
	}
	if err := r.Err(); err != nil {
		return m, err
	}
	if min(m.Epoch, m.Step, m.GlobalStep, m.Params, m.Moments, m.ESTs) < 0 {
		return m, fmt.Errorf("%w: job checkpoint progress (epoch=%d step=%d global=%d) or group counts (%d, %d, %d) negative",
			ErrCorrupt, m.Epoch, m.Step, m.GlobalStep, m.Params, m.Moments, m.ESTs)
	}
	return m, nil
}

// ESTHead is the head of an EST context group: the virtual rank, its
// framework RNG states, and how many implicit-state tensors follow it. The
// tensors come next, then the rank's data-loader cursor.
type ESTHead struct {
	Rank   int
	RNG    rng.BundleState
	States int
}

// PutESTHead writes an EST context group's head.
func PutESTHead(w *Writer, h ESTHead) {
	w.PutInt(h.Rank)
	w.PutRNGState(h.RNG.Python)
	w.PutRNGState(h.RNG.NumPy)
	w.PutRNGState(h.RNG.Torch)
	w.PutInt(h.States)
}

// ReadESTHead reads what PutESTHead wrote.
func ReadESTHead(r *Reader) (ESTHead, error) {
	var h ESTHead
	h.Rank, _ = r.Int()
	h.RNG.Python, _ = r.RNGState()
	h.RNG.NumPy, _ = r.RNGState()
	h.RNG.Torch, _ = r.RNGState()
	h.States, _ = r.Int()
	return h, r.Err()
}

// JobGroups looks up a job checkpoint's groups by ID in a store that covers
// its manifest.
type JobGroups struct {
	entries map[string]ManifestEntry
	set     *ShardSet
}

// NewJobGroups indexes m's entries over set.
func NewJobGroups(m Manifest, set *ShardSet) JobGroups {
	entries := make(map[string]ManifestEntry, len(m.Entries))
	for _, e := range m.Entries {
		entries[e.ID] = e
	}
	return JobGroups{entries, set}
}

// Open returns a Reader over group id's bytes: the manifest must list the
// group and the store must hold exactly the bytes it lists.
func (g JobGroups) Open(id string) (*Reader, error) {
	e, ok := g.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: manifest lacks group %q", ErrCorrupt, id)
	}
	b, ok := g.set.Get(e.Hash)
	if !ok || len(b) != e.Len {
		return nil, fmt.Errorf("%w: shard %q missing or wrong length", ErrCorrupt, id)
	}
	return NewReader(b), nil
}

// Meta opens the meta group and reads its head. The Reader is left on the
// first field after the head.
func (g JobGroups) Meta() (JobMeta, *Reader, error) {
	r, err := g.Open(MetaShardID)
	if err != nil {
		return JobMeta{}, nil, err
	}
	m, err := readJobMeta(r)
	return m, r, err
}

// EST opens EST context group id and reads its head. The Reader is left on
// the first state tensor.
func (g JobGroups) EST(id string) (ESTHead, *Reader, error) {
	r, err := g.Open(id)
	if err != nil {
		return ESTHead{}, nil, err
	}
	h, err := ReadESTHead(r)
	return h, r, err
}
