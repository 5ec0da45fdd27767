// Package faults is the deterministic fault-injection engine behind the
// distributed runtime's resilience tests. Elastic training treats worker
// failure as the common case, not an exceptional one: workers crash, hang,
// and drop connections, and the system must recover from the last on-demand
// checkpoint without perturbing training. This package makes those failures
// reproducible.
//
// A Plan describes a fault campaign for a whole run: per-site rules (crash,
// delay, or connection drop, each with a firing probability) plus an optional
// budget bounding the total number of faults across the run. Each worker of
// each rendezvous epoch derives its own Injector from the plan; the
// injector's decision stream is a pure function of (plan seed, epoch, worker
// index), so a worker's fault schedule does not depend on goroutine
// scheduling. The shared budget is the only cross-worker coupling — it
// guarantees the campaign terminates, which is what lets a retry loop with
// MaxRetries ≥ Budget provably converge: every fired fault dooms at most one
// phase attempt.
package faults

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// ErrInjectedCrash marks an error produced by an injected crash, so tests
// and retry loops can distinguish simulated failures from real ones.
var ErrInjectedCrash = errors.New("faults: injected crash")

// Site names a fault-injection point in the distributed runtime.
type Site string

// Injection sites threaded through the worker and leader paths.
const (
	// Dial fires when a worker dials the coordinator or a follower dials
	// the leader.
	Dial Site = "dial"
	// Gather fires around per-step gradient gathering (follower send,
	// leader receive).
	Gather Site = "gather"
	// Broadcast fires around the reduced-gradient broadcast (leader send,
	// follower receive).
	Broadcast Site = "broadcast"
	// CkptShip fires around end-of-phase checkpoint shipping (EST contexts
	// to the leader, the assembled checkpoint to the coordinator).
	CkptShip Site = "ckpt-ship"
	// ShardShip fires around incremental shard shipping to the coordinator
	// directory (manifest offer, shard upload).
	ShardShip Site = "shard-ship"
	// Migrate fires around live EST migration: the boundary shard fetch a
	// reconfiguring worker performs from its peers, before it resumes
	// training.
	Migrate Site = "migrate"
)

// Action is what an injector does when a rule fires.
type Action int

const (
	// None leaves the site untouched.
	None Action = iota
	// Crash makes the worker drop its connections and exit with
	// ErrInjectedCrash.
	Crash
	// Delay stalls the worker at the site for the rule's Delay duration.
	Delay
	// ConnDrop closes the site's connection without error; the failure
	// surfaces on the next I/O operation, like a peer vanishing mid-stream.
	ConnDrop
)

// String names the action.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Delay:
		return "delay"
	case ConnDrop:
		return "conn-drop"
	}
	return "Action(?)"
}

// Rule is the fault policy at one site.
type Rule struct {
	// Prob is the probability in [0,1] that a visit to the site fires.
	Prob float64
	// Action is what happens when the rule fires.
	Action Action
	// Delay is the stall duration for Action == Delay.
	Delay time.Duration
}

// Plan is a seeded fault campaign shared (read-only, aside from the fire
// counters) by every worker of a run.
type Plan struct {
	// Seed roots every derived injector's decision stream.
	Seed uint64
	// Rules maps each site to its fault policy; absent sites never fire.
	Rules map[Site]Rule
	// Budget bounds the total number of fired faults across the run;
	// zero or negative means unlimited.
	Budget int

	// OnFire, when set, observes every fired fault (site and action) — the
	// hook the execution tracer's fault-event log hangs off. It runs on
	// worker goroutines, so implementations must be concurrency-safe, and it
	// is observation only: firing decisions never depend on it.
	OnFire func(Site, Action)

	fired  atomic.Int64
	bySite [6]atomic.Int64 // indexed by siteIndex
}

func siteIndex(s Site) int {
	switch s {
	case Dial:
		return 0
	case Gather:
		return 1
	case Broadcast:
		return 2
	case CkptShip:
		return 3
	case ShardShip:
		return 4
	default:
		return 5
	}
}

// Fired returns how many faults the campaign has injected so far.
func (p *Plan) Fired() int {
	if p == nil {
		return 0
	}
	return int(p.fired.Load())
}

// FiredAt returns how many faults fired at one site.
func (p *Plan) FiredAt(s Site) int {
	if p == nil {
		return 0
	}
	return int(p.bySite[siteIndex(s)].Load())
}

// take consumes one unit of budget, returning false when exhausted.
func (p *Plan) take(s Site) bool {
	if p.Budget > 0 {
		for {
			cur := p.fired.Load()
			if cur >= int64(p.Budget) {
				return false
			}
			if p.fired.CompareAndSwap(cur, cur+1) {
				p.bySite[siteIndex(s)].Add(1)
				return true
			}
		}
	}
	p.fired.Add(1)
	p.bySite[siteIndex(s)].Add(1)
	return true
}

// Injector derives the deterministic per-worker injector for one rendezvous
// epoch. A nil plan yields a nil injector, which never fires.
func (p *Plan) Injector(epoch uint64, worker int) *Injector {
	if p == nil {
		return nil
	}
	// Mix epoch and worker into the seed FNV-style so distinct
	// (epoch, worker) pairs get uncorrelated decision streams.
	h := p.Seed
	h ^= epoch * 0x9e3779b97f4a7c15
	h *= 1099511628211
	h ^= uint64(worker+1) * 0xd1342543de82ef95
	h *= 1099511628211
	return &Injector{plan: p, draws: rng.New(h)}
}

// Injector decides, deterministically, whether a visit to a site trips a
// fault. It is owned by exactly one worker goroutine and is not safe for
// concurrent use (the backing plan's counters are).
type Injector struct {
	plan  *Plan
	draws *rng.Stream
}

// Check consults the plan at a site. It returns the action the caller must
// perform and, for Delay, the stall duration. The decision draw happens on
// every visit regardless of budget, so exhausting the budget never shifts a
// worker's later decisions.
func (in *Injector) Check(site Site) (Action, time.Duration) {
	if in == nil || in.plan == nil {
		return None, 0
	}
	rule, ok := in.plan.Rules[site]
	if !ok || rule.Prob <= 0 {
		return None, 0
	}
	hit := in.draws.Bernoulli(rule.Prob)
	if !hit || !in.plan.take(site) {
		return None, 0
	}
	if in.plan.OnFire != nil {
		in.plan.OnFire(site, rule.Action)
	}
	return rule.Action, rule.Delay
}
