package models

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/nn"
)

// Zoo load path: reconstruct an inference-ready model from a sharded
// checkpoint container (the format core.Job.Checkpoint emits). A Servable is
// a freshly built zoo network whose parameters — and, for stateful nets, the
// implicit model state of virtual rank 0, exactly the replica core.Job.
// Evaluate switches in — are restored bitwise from the container's shards.
//
// Failures are typed: ErrNotFound for "this container does not hold the
// model you asked for" (or the name is not in the zoo, or the file does not
// exist), ErrCorrupt for structurally bad bytes. Both survive errors.Is
// through every wrap, so a serving control plane can distinguish
// "redeploy/rename" errors from "refetch the checkpoint" errors.

// ErrNotFound reports that the requested model is absent: not in the zoo
// registry, not what the checkpoint holds, or the checkpoint file itself is
// missing.
var ErrNotFound = errors.New("models: model not found")

// ErrCorrupt re-exports the checkpoint layer's corruption sentinel: every
// structurally bad container, manifest, or shard surfaces as a wrap of it.
var ErrCorrupt = checkpoint.ErrCorrupt

// Meta-group framing of the core checkpoint format. The values must match
// core's ckptMagic/ckptVersion; TestServableMatchesTrainedJob round-trips a
// real core.Job checkpoint through Load to pin the coupling.
const (
	metaMagic   = 0xEA57_5CA1E0000000
	metaVersion = 3
)

// Shard group identifiers, mirroring core's manifest layout.
func paramShardID(i int) string { return fmt.Sprintf("param/%04d", i) }

const (
	metaShardID = "meta"
	est0ShardID = "est/0000"
)

// Servable is an inference-ready model reconstructed from a checkpoint.
type Servable struct {
	// Name is the zoo workload name.
	Name string
	// Step is the global training step the checkpoint was taken at.
	Step int64
	// Seed is the job seed the parameters were initialized (and trained)
	// under.
	Seed uint64
	// Net is the network with restored parameters and implicit state. It
	// must only be driven with Training=false contexts.
	Net nn.Layer
	// InShape is the per-item input shape (no batch dimension).
	InShape []int
	// Classes is the label arity of the model's task.
	Classes int
	// Dataset is the workload's synthetic dataset — the only source of
	// valid inputs for models with embedding tables (ids must stay in
	// vocabulary). Load generators should draw from it.
	Dataset data.Dataset
}

// InDim returns the flattened per-item input length.
func (s *Servable) InDim() int {
	n := 1
	for _, d := range s.InShape {
		n *= d
	}
	return n
}

// Load reconstructs the named model from a sharded checkpoint container.
func Load(name string, container []byte) (*Servable, error) {
	if _, ok := registry[name]; !ok {
		return nil, fmt.Errorf("models: zoo has no workload %q (have %v): %w", name, Names(), ErrNotFound)
	}
	m, set, err := checkpoint.DecodeContainer(container)
	if err != nil {
		return nil, fmt.Errorf("models: loading %q: %w", name, err)
	}

	byID := make(map[string]checkpoint.ManifestEntry, len(m.Entries))
	for _, e := range m.Entries {
		byID[e.ID] = e
	}
	group := func(id string) (*checkpoint.Reader, error) {
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("models: loading %q: manifest lacks group %q: %w", name, id, ErrCorrupt)
		}
		b, ok := set.Get(e.Hash)
		if !ok || len(b) != e.Len {
			return nil, fmt.Errorf("models: loading %q: shard %q missing or wrong length: %w", name, id, ErrCorrupt)
		}
		return checkpoint.NewReader(b), nil
	}

	r, err := group(metaShardID)
	if err != nil {
		return nil, err
	}
	if magic, err := r.Uint64(); err != nil || magic != metaMagic {
		return nil, fmt.Errorf("models: loading %q: not an EasyScale checkpoint: %w", name, ErrCorrupt)
	}
	if v, err := r.Int(); err != nil || v != metaVersion {
		return nil, fmt.Errorf("models: loading %q: unsupported checkpoint version: %w", name, ErrCorrupt)
	}
	ckptName, err := r.String()
	if err != nil {
		return nil, fmt.Errorf("models: loading %q meta: %w", name, err)
	}
	if ckptName != name {
		return nil, fmt.Errorf("models: checkpoint holds model %q, not %q: %w", ckptName, name, ErrNotFound)
	}
	seed, err := r.Uint64()
	if err != nil {
		return nil, fmt.Errorf("models: loading %q meta: %w", name, err)
	}
	// skip the training-geometry fields in their exact encoded order —
	// numESTs, batch, level (ints), D2 (bool), d2Block, epoch, step (ints) —
	// inference does not depend on any of them
	for i := 0; i < 3; i++ {
		if _, err := r.Int(); err != nil {
			return nil, fmt.Errorf("models: loading %q meta: %w", name, err)
		}
	}
	if _, err := r.Bool(); err != nil {
		return nil, fmt.Errorf("models: loading %q meta: %w", name, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Int(); err != nil {
			return nil, fmt.Errorf("models: loading %q meta: %w", name, err)
		}
	}
	globalStep, err := r.Int()
	if err != nil || globalStep < 0 {
		return nil, fmt.Errorf("models: loading %q meta progress: %w", name, ErrCorrupt)
	}
	nparams, err := r.Int()
	if err != nil {
		return nil, fmt.Errorf("models: loading %q meta: %w", name, err)
	}

	w, err := Build(name, seed)
	if err != nil {
		return nil, err
	}
	params := w.Params()
	if nparams != len(params) {
		return nil, fmt.Errorf("models: checkpoint has %d parameter groups, %q has %d: %w",
			nparams, name, len(params), ErrCorrupt)
	}
	for i, p := range params {
		gr, err := group(paramShardID(i))
		if err != nil {
			return nil, err
		}
		if err := gr.TensorInto(p.Value); err != nil {
			return nil, fmt.Errorf("models: loading %q parameter %d: %w", name, i, err)
		}
	}

	// implicit model state (BatchNorm running statistics): restore virtual
	// rank 0's replica from its EST shard — the same replica Evaluate
	// switches in for validation accuracy
	if sts := w.StateTensors(); len(sts) > 0 {
		gr, err := group(est0ShardID)
		if err != nil {
			return nil, err
		}
		if _, err := gr.Int(); err != nil { // virtual rank
			return nil, fmt.Errorf("models: loading %q EST state: %w", name, err)
		}
		for i := 0; i < 3; i++ { // python/numpy/torch RNG states
			if _, err := gr.RNGState(); err != nil {
				return nil, fmt.Errorf("models: loading %q EST state: %w", name, err)
			}
		}
		n, err := gr.Int()
		if err != nil || n != len(sts) {
			return nil, fmt.Errorf("models: checkpoint EST state has %d tensors, %q has %d: %w",
				n, name, len(sts), ErrCorrupt)
		}
		for i, st := range sts {
			if err := gr.TensorInto(st); err != nil {
				return nil, fmt.Errorf("models: loading %q state tensor %d: %w", name, i, err)
			}
		}
	}

	return &Servable{
		Name:    name,
		Step:    int64(globalStep),
		Seed:    seed,
		Net:     w.Net,
		InShape: append([]int(nil), w.Dataset.InputShape()...),
		Classes: w.Classes,
		Dataset: w.Dataset,
	}, nil
}
