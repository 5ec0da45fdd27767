package optim

import "math"

// LRScheduler adjusts an optimizer's learning rate per epoch. The epoch
// counter is the scheduler's only mutable state and is checkpointed through
// Epoch / SetEpoch — the paper lists the LR scheduler among the parameters an
// on-demand checkpoint must capture.
type LRScheduler interface {
	// EpochStep advances one epoch and applies the resulting rate.
	EpochStep()
	// Epoch returns the number of completed epochs.
	Epoch() int
	// SetEpoch restores the epoch counter and re-applies the rate.
	SetEpoch(e int)
}

// StepLR decays the learning rate by Gamma every StepSize epochs — the
// scheduler whose gamma hyper-parameter Figure 4 sweeps.
type StepLR struct {
	Opt      Optimizer
	BaseLR   float64
	StepSize int
	Gamma    float64

	epoch int
}

// NewStepLR constructs a StepLR scheduler; the optimizer's current rate
// becomes the base rate.
func NewStepLR(opt Optimizer, stepSize int, gamma float64) *StepLR {
	return &StepLR{Opt: opt, BaseLR: opt.LR(), StepSize: stepSize, Gamma: gamma}
}

func (s *StepLR) apply() {
	decays := s.epoch / s.StepSize
	s.Opt.SetLR(s.BaseLR * math.Pow(s.Gamma, float64(decays)))
}

// EpochStep advances one epoch.
func (s *StepLR) EpochStep() {
	s.epoch++
	s.apply()
}

// Epoch returns completed epochs.
func (s *StepLR) Epoch() int { return s.epoch }

// SetEpoch restores the epoch counter.
func (s *StepLR) SetEpoch(e int) {
	s.epoch = e
	s.apply()
}
