package dist

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Run is the single entry point of the distributed elastic runtime: it
// executes an elastic training job on networked workers over loopback TCP —
// one worker per placement entry, gradients synchronized through the phase
// leader, the state of every phase boundary shipped into the coordinator's
// shard directory — and returns the final checkpoint container.
//
// The zero-option call is the plain stop-restart elastic run, the paper's
// on-demand checkpoint plus restart: when a phase completes every worker is
// departed and reaped, and the next phase bootstraps a fresh worker set from
// the directory's container. WithLiveMigration changes that boundary policy
// and nothing else. Crash recovery, fault injection, and execution tracing
// are layered on through the other options:
//
//	ckpt, err := dist.Run(cfg, "electra", phases,
//		dist.WithRetryPolicy(dist.RetryPolicy{MaxRetries: 3}),
//		dist.WithFaultPlan(plan),
//		dist.WithTracer(tr))
//
// With a retry policy, a phase whose worker set dies is retried — after a
// jittered exponential backoff — from the last completed phase boundary. A
// phase is all-or-nothing, so a retried phase reproduces exactly what the
// uninterrupted phase would have computed: training never loses consistency,
// only time. Every attempt runs under a fresh rendezvous epoch, fencing out
// stragglers of the dead attempt.
func Run(cfg core.Config, workload string, phases []Phase, opts ...Option) ([]byte, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	coord, err := NewCoordinator()
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	coord.SetTimeout(resolveTimeout(cfg.DistTimeout))

	d := newDriver(coord, cfg, o)
	if tr := o.tracer; o.faults != nil && tr != nil && o.faults.OnFire == nil {
		// Surface every fired fault in the trace. The hook only observes —
		// firing decisions stay a pure function of (plan seed, epoch, worker).
		o.faults.OnFire = func(s faults.Site, a faults.Action) {
			tr.Event(d.track, obs.CatFault, "fault.fire", string(s)+":"+a.String(), int64(a), 0)
		}
	}
	// the in-process launcher: one worker goroutine per admission slot
	d.spawn = func(epoch uint64, idx int) <-chan error {
		done := make(chan error, 1)
		spec := WorkerSpec{
			Cfg:       cfg,
			Workload:  workload,
			CoordAddr: coord.Addr(),
			Epoch:     epoch,
			Index:     idx,
			Faults:    o.faults,
			Tracer:    o.tracer,
		}
		go func() { done <- RunWorker(spec) }()
		return done
	}
	return d.run(phases)
}

// runOptions is the resolved option set of one Run call.
type runOptions struct {
	retry  RetryPolicy
	faults *faults.Plan
	tracer *obs.Tracer
	live   bool
}

// Option configures Run.
type Option func(*runOptions)

// WithRetryPolicy enables crash recovery: a failed phase attempt is retried
// up to p.MaxRetries times from the last completed phase boundary.
func WithRetryPolicy(p RetryPolicy) Option { return func(o *runOptions) { o.retry = p } }

// WithFaultPlan injects the seeded fault campaign into every worker of every
// attempt. With plan.Budget ≤ the retry policy's MaxRetries the run provably
// converges: each fired fault dooms at most one attempt of one phase.
func WithFaultPlan(plan *faults.Plan) Option { return func(o *runOptions) { o.faults = plan } }

// WithTracer records the run's execution trace: phase spans and retry events
// on the driver track, per-worker reconfigure and network spans (gather,
// broadcast, context and shard shipping), and fault-fire events. Tracing never touches the
// training numerics.
func WithTracer(tr *obs.Tracer) Option { return func(o *runOptions) { o.tracer = tr } }

// WithLiveMigration switches the boundary policy from stop-restart to live
// migration: workers persist across phases, a scale event migrates only the
// EST contexts that change hands (as content-addressed shards fetched
// peer-to-peer), joiners restore in parallel from multiple peers, and data-
// plane connections are kept and pre-dialled across the boundary. Numerics
// are bitwise identical under both policies — the tests pin it — only the
// reconfiguration mechanics change.
func WithLiveMigration() Option { return func(o *runOptions) { o.live = true } }

// RetryPolicy shapes the phase retry loop of Run.
type RetryPolicy struct {
	// MaxRetries is how many times a failed phase attempt is retried
	// (so a phase runs at most MaxRetries+1 times).
	MaxRetries int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it. Zero defaults to 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero defaults to 2s.
	MaxBackoff time.Duration
}
