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

	groups := checkpoint.NewJobGroups(m, set)
	meta, _, err := groups.Meta()
	if err != nil {
		return nil, fmt.Errorf("models: loading %q: %w", name, err)
	}
	if meta.Name != name {
		return nil, fmt.Errorf("models: checkpoint holds model %q, not %q: %w", meta.Name, name, ErrNotFound)
	}
	w, err := BuildBlank(name, meta.Seed)
	if err != nil {
		return nil, err
	}
	params := w.Params()
	if meta.Params != len(params) {
		return nil, fmt.Errorf("models: checkpoint has %d parameter groups, %q has %d: %w",
			meta.Params, name, len(params), ErrCorrupt)
	}
	for i, p := range params {
		gr, err := groups.Open(checkpoint.ParamShardID(i))
		if err == nil {
			err = gr.TensorInto(p.Value)
		}
		if err != nil {
			return nil, fmt.Errorf("models: loading %q parameter %d: %w", name, i, err)
		}
	}

	// implicit model state (BatchNorm running statistics): restore virtual
	// rank 0's replica from its EST shard — the same replica Evaluate
	// switches in for validation accuracy
	if sts := w.StateTensors(); len(sts) > 0 {
		h, gr, err := groups.EST(checkpoint.ESTShardID(0))
		if err != nil {
			return nil, fmt.Errorf("models: loading %q EST state: %w", name, err)
		}
		if h.States != len(sts) {
			return nil, fmt.Errorf("models: checkpoint EST state has %d tensors, %q has %d: %w",
				h.States, name, len(sts), ErrCorrupt)
		}
		for i, st := range sts {
			if err := gr.TensorInto(st); err != nil {
				return nil, fmt.Errorf("models: loading %q state tensor %d: %w", name, i, err)
			}
		}
	}

	return &Servable{
		Name:    name,
		Step:    int64(meta.GlobalStep),
		Seed:    meta.Seed,
		Net:     w.Net,
		InShape: append([]int(nil), w.Dataset.InputShape()...),
		Classes: w.Classes,
		Dataset: w.Dataset,
	}, nil
}
