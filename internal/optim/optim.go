// Package optim implements the optimizers and learning-rate schedulers of
// the EasyScale training stack.
//
// Optimizer updates are elementwise and executed in a fixed parameter order,
// so they introduce no non-determinism of their own; their mutable state
// (momentum buffers, step counters) is part of the "parameters"
// section of an on-demand checkpoint and is exposed through StateTensors /
// StepCount for that purpose.
package optim

import (
	"repro/internal/kernels"
	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter.
	Step()
	// LR returns the current learning rate.
	LR() float64
	// SetLR replaces the learning rate (used by schedulers).
	SetLR(lr float64)
	// StateTensors returns the mutable optimizer state in a stable order,
	// for checkpointing.
	StateTensors() []*tensor.Tensor
	// StepCount returns the number of updates applied so far.
	StepCount() int
	// SetStepCount restores the update counter from a checkpoint.
	SetStepCount(n int)
}

// SGD is stochastic gradient descent with optional momentum and decoupled
// L2 weight decay, matching PyTorch semantics.
type SGD struct {
	Params      []*nn.Parameter
	Momentum    float64
	WeightDecay float64

	lr       float64
	velocity []*tensor.Tensor
	steps    int
}

// NewSGD constructs an SGD optimizer over params.
func NewSGD(params []*nn.Parameter, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{Params: params, Momentum: momentum, WeightDecay: weightDecay, lr: lr}
	if momentum != 0 {
		s.velocity = tensor.NewBlock(len(params), func(i int) []int { return params[i].Value.Shape() })
	}
	return s
}

// Step applies v = μv + (g + λw); w -= lr·v (PyTorch SGD).
//
// The update runs on the vectorized elementwise primitives in kernels; each
// per-element operation sequence matches the scalar expression exactly (see
// sgdStepRef in the tests, the executable spec the primitives are checked
// against). The weight-decay term is materialized only when λ ≠ 0 — blindly
// computing g + 0·w would be bitwise wrong for non-finite weights.
//
//easyscale:hotpath
func (s *SGD) Step() {
	lr := float32(s.lr)
	mu := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	var gw []float32
	for i, p := range s.Params {
		g := p.Grad.Data
		if wd != 0 {
			if cap(gw) < len(g) {
				pool.Put(gw)
				gw = pool.GetUninit(len(g))
			}
			gw = gw[:len(g)]
			kernels.AddScaledF32(gw, g, p.Value.Data, wd)
			g = gw
		}
		if s.velocity != nil {
			kernels.SgdMomentumF32(p.Value.Data, s.velocity[i].Data, g, lr, mu)
		} else {
			kernels.SgdPlainF32(p.Value.Data, g, lr)
		}
	}
	if gw != nil {
		pool.Put(gw)
	}
	s.steps++
}

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// SetLR replaces the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// StateTensors returns the momentum buffers.
func (s *SGD) StateTensors() []*tensor.Tensor { return s.velocity }

// StepCount returns the number of updates applied.
func (s *SGD) StepCount() int { return s.steps }

// SetStepCount restores the update counter.
func (s *SGD) SetStepCount(n int) { s.steps = n }
