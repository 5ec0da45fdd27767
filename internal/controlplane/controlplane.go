// Package controlplane is the multi-tenant front door to the EasyScale
// scheduler: teams own budget envelopes (GPU-count quotas per device type),
// running jobs hold immutable leases funded by an envelope, jobs that cannot
// be admitted receive a reservation carrying an ETA, the capacity deficit,
// and concrete remedies, and idle capacity is borrowable across teams with
// preemption-on-reclaim.
//
// The plane composes the existing sched passes rather than replacing them:
// scale-out rides IntraJob.Proposals → RoundPass → IntraJob.Grant (so a
// single-tenant plane is bitwise-identical to the pre-plane scheduler — the
// shim test pins it), preemption rides IntraJob.Preempt, the same Apply/plan
// machinery as a voluntary trim, and the slowdown fallback rides
// IntraJob.ObserveThroughput (Observe, called by the root package's Driver
// of live jobs, which reads Held, Placement and Progress after each Tick).
// EasyScale's bitwise-consistent Scale path is what makes preemption
// accuracy-free, which in turn is the argument for borrowing aggressively: a
// reclaim costs the borrower a restart pause, never accuracy.
//
// Every placement, reservation, borrow, and preemption appends a
// why-explained entry to the decision log (mirrored to the obs tracer under
// CatPlane); identical submissions yield byte-identical logs. The log is kept
// as fixed-size records and rendered to text on demand (record.go).
package controlplane

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

var (
	capMu    sync.Mutex
	capCache = map[string]sched.Capability{}
)

// CapabilityFor returns the per-GPU-type compute capability C_i (global
// mini-batches per second for one EST) of a workload, derived from the
// calibrated FLOP cost and the device specs.
func CapabilityFor(model string) sched.Capability {
	capMu.Lock()
	defer capMu.Unlock()
	if c, ok := capCache[model]; ok {
		return c
	}
	w := models.MustBuild(model, 0)
	var c sched.Capability
	for _, t := range device.AllTypes() {
		c[t] = w.StepRate(device.SpecOf(t).PeakGFLOPS)
	}
	capCache[model] = c
	return c
}

// Config configures a control plane.
type Config struct {
	// Inventory is the physical fleet.
	Inventory sched.Resources
	// Teams are the budget envelopes. Empty means one "default" team owning
	// the whole inventory — the single-tenant mode the cluster simulator
	// uses, equivalent to the pre-plane scheduler.
	Teams []TeamConfig
	// TickSec is the simulation step fed to Tick (default 10 s).
	TickSec float64
	// RestartSec is the reconfiguration pause a job pays on scale-out,
	// admission, or preemption (default 5 s).
	RestartSec float64
	// AllowBorrowing lets idle envelope headroom fund other teams' jobs,
	// subject to preemption-on-reclaim when the owner needs it back.
	AllowBorrowing bool
	// Strategy is the bin-packing policy (default BestFit).
	Strategy Strategy
	// NodeGPUs is the simulated node size (default 8).
	NodeGPUs int
	// HomogeneousOnly restricts every job to one GPU type (the
	// EasyScale-homo mode).
	HomogeneousOnly bool
	// Trace, when non-nil, mirrors the decision log as CatPlane events.
	// Decisions never depend on it.
	Trace *obs.Tracer
}

// proposalTopK bounds proposals per job per round.
const proposalTopK = 3

func (c *Config) defaults() {
	if c.TickSec <= 0 {
		c.TickSec = 10
	}
	if c.RestartSec <= 0 {
		c.RestartSec = 5
	}
	if c.Strategy == nil {
		c.Strategy = BestFit{}
	}
	if c.NodeGPUs <= 0 {
		c.NodeGPUs = 8
	}
	if len(c.Teams) == 0 {
		c.Teams = []TeamConfig{{Name: "default", Quota: c.Inventory.Clone()}}
	}
}

// job is the plane's per-job state.
type job struct {
	spec      workload.JobSpec
	team      string
	env       *envelope // the team's
	intra     *sched.IntraJob
	leases    []*Lease
	resv      *Reservation
	admitted  bool
	started   bool
	done      bool
	remaining float64
	startSec  float64
	finishSec float64
	// pausedUtil is the restart-pause debt in seconds: reconfiguration
	// (admission, scale, preemption) costs RestartSec of training time.
	pausedUtil float64
	submitSeq  int // index into Plane.order
	// grantedRound is the last scale-out round that accepted a proposal of
	// this job (at most one per job per round).
	grantedRound int
}

// Plane is the control plane. Not safe for concurrent use: it models one
// deterministic cluster-scheduling loop.
type Plane struct {
	cfg   Config
	free  sched.Resources
	teams map[string]*envelope
	// envs is teams in name order: a team's index in it is how records and
	// sponsor selection name the team.
	envs []*envelope
	jobs map[string]*job
	// order is the registry of every job ever submitted, in submission order
	// (JobStats, OpenReservations, and every record's job index read it).
	// Tick walks only live — admitted and not done, in submission order — and
	// waiting — not yet admitted, by (priority desc, submission).
	order, live, waiting []*job
	nodes                []*Node
	typeNodes            [device.NumTypes][]*Node // nodes by type, in node order
	activeLeases         []*Lease
	leaseSeq             int
	round                int
	nowSec               float64
	track                int
	recs                 [][]record // the decision log, in chunks; see record.go
	nrecs                int
	spill                []string         // messages of the spilled kinds
	shares               []share          // node shares of every minted lease
	head                 []sched.Counts   // sponsorFor's and the funded pass's scratch: a headroom view
	avail                sched.Resources  // availFor's scratch
	proposals            []sched.Proposal // Tick's scratch: one round's proposals
	utilSum              float64
	utilTicks            int
	// decisions is the one count the records cannot give: a refused grant
	// and a reservation retry that changes nothing leave no record.
	decisions int
}

// New builds a control plane over the configured inventory and envelopes.
func New(cfg Config) *Plane {
	cfg.defaults()
	p := &Plane{
		cfg:   cfg,
		free:  cfg.Inventory.Clone(),
		teams: map[string]*envelope{},
		jobs:  map[string]*job{},
		avail: sched.Resources{},
	}
	for _, tc := range cfg.Teams {
		if _, dup := p.teams[tc.Name]; dup {
			continue
		}
		p.teams[tc.Name] = newEnvelope(tc)
		p.envs = append(p.envs, p.teams[tc.Name])
	}
	sort.Slice(p.envs, func(i, k int) bool { return p.envs[i].cfg.Name < p.envs[k].cfg.Name })
	for i, e := range p.envs {
		e.idx = i
	}
	p.head = make([]sched.Counts, len(p.envs))
	p.nodes = buildNodes(cfg.Inventory.Counts(), cfg.NodeGPUs)
	for _, n := range p.nodes {
		p.typeNodes[n.Type] = append(p.typeNodes[n.Type], n)
	}
	p.track = cfg.Trace.Track("controlplane") // -1 on a nil tracer
	return p
}

// Submit registers a job and attempts admission. Exactly one return is
// non-nil: a Lease when the job is admitted (a zero-count admission ticket
// for fully elastic jobs, which start at zero GPUs and grow by proposals),
// or a Reservation with ETA, deficit, and remedies when it must wait. A job
// ID can be registered once: a second Submit of it changes nothing and is
// answered with a reservation that can never be met.
func (p *Plane) Submit(spec workload.JobSpec) (*Lease, *Reservation) {
	if _, dup := p.jobs[spec.ID]; dup {
		p.emitText(record{kind: kAnomaly}, fmt.Sprintf("job %s is already registered; resubmission ignored", spec.ID))
		return nil, &Reservation{
			JobID: spec.ID, Team: spec.Team, Type: spec.RequestedType, Need: spec.MinGPUs, ETASec: -1,
			Remedies: []string{fmt.Sprintf("resubmit under another ID: %s is taken", spec.ID)},
			SinceSec: p.nowSec,
		}
	}
	team := spec.Team
	if _, ok := p.teams[team]; !ok {
		if team != "" {
			p.emitText(record{kind: kAnomaly}, fmt.Sprintf("job %s names unknown team %q; assigning to %s",
				spec.ID, team, p.envs[0].cfg.Name))
		}
		team = p.envs[0].cfg.Name
	}
	homog := p.cfg.HomogeneousOnly || spec.HomogeneousOnly
	j := &job{
		spec:      spec,
		team:      team,
		env:       p.teams[team],
		intra:     sched.NewIntraJob(spec.ID, sched.NewCompanion(spec.MaxP, CapabilityFor(spec.Model)), homog),
		remaining: spec.WorkSteps,
		submitSeq: len(p.order),
	}
	j.intra.Trace = p.cfg.Trace
	p.jobs[spec.ID] = j
	p.order = append(p.order, j)
	p.decisions++
	if spec.MinGPUs <= 0 {
		p.admit(j)
		p.emit(record{kind: kAdmitElastic, job: int32(j.submitSeq)})
		return &Lease{ID: "admit-" + spec.ID, JobID: spec.ID, Team: team, Sponsor: team}, nil
	}
	if l := p.tryAdmit(j); l != nil {
		return l, nil
	}
	p.updateReservation(j)
	// waiting is kept in retry order: priority first, then submission
	i := sort.Search(len(p.waiting), func(i int) bool { return p.waiting[i].spec.Priority < spec.Priority })
	p.waiting = slices.Insert(p.waiting, i, j)
	return nil, j.resv
}

// admit marks j admitted and enters it in the live list at its submission
// rank. A job leaves waiting where the caller walks it (Tick).
func (p *Plane) admit(j *job) {
	j.admitted, j.resv = true, nil
	i := sort.Search(len(p.live), func(i int) bool { return p.live[i].submitSeq > j.submitSeq })
	p.live = slices.Insert(p.live, i, j)
}

// tryAdmit attempts to fund and place a gang job's admission floor
// (MinGPUs of its requested type). Quota-backed demand may reclaim GPUs the
// team lent out (and, failing that, other teams' borrowed leases).
func (p *Plane) tryAdmit(j *job) *Lease {
	t, need := j.spec.RequestedType, j.spec.MinGPUs
	own := j.env
	// Lent-out capacity still belongs to the quota: a demand the quota can
	// cover after calling in the team's loans is quota-backed and may
	// preempt borrowed leases — the team's own first (restoring both the
	// physical pool and the envelope headroom), then other sponsors'.
	if p.cfg.AllowBorrowing && own.headroom(t)+own.lent[t] >= need {
		if short := max(need-p.free[t], need-own.headroom(t)); short > 0 {
			p.reclaim(j, t, short)
		}
	}
	if p.free[t] < need {
		return nil
	}
	sponsor, ok := p.sponsorFor(own.idx, t, need)
	if !ok {
		return nil
	}
	var floor sched.Counts
	floor[t] = need
	if _, applied := j.intra.Apply(floor); !applied {
		return nil
	}
	p.free[t] -= need
	l := p.mintLease(j, t, need, sponsor)
	p.admit(j)
	j.pausedUtil = p.cfg.RestartSec
	if !j.started {
		j.started, j.startSec = true, p.nowSec
	}
	p.emit(record{kind: kAdmitGang, typ: int8(t), count: int32(need), job: int32(j.submitSeq), lease: int32(l.seq),
		f0: p.nowSec - j.spec.ArrivalSec})
	return l
}

// reclaim frees up to n GPUs of type t for a quota-backed demand by
// preempting borrowed leases: GPUs the demanding team lent out go first
// (newest lease first), then other teams' borrowed leases. Opportunistic
// (elastic, non-borrowed) allocations are never preempted — only borrowers
// pay, and only with a restart pause, never accuracy (the Scale path is
// bitwise consistent).
func (p *Plane) reclaim(requester *job, t device.Type, n int) {
	var cands []*Lease
	for pass := 0; pass < 2; pass++ {
		for i := len(p.activeLeases) - 1; i >= 0; i-- {
			l := p.activeLeases[i]
			if l.Type != t || !l.Borrowed() || l.JobID == requester.spec.ID {
				continue
			}
			if (pass == 0) == (l.Sponsor == requester.team) {
				cands = append(cands, l)
			}
		}
	}
	for _, l := range cands {
		if n <= 0 {
			return
		}
		holder := p.jobs[l.JobID]
		var take sched.Counts
		take[t] = min(l.Count, n)
		p.emit(record{kind: kPreempt, typ: int8(t), sponsor: int16(p.teams[l.Sponsor].idx), count: int32(take[t]),
			job: int32(holder.submitSeq), lease: int32(l.seq), aux: int32(requester.submitSeq)})
		released, fellIdle := holder.intra.Preempt(take)
		freedT := released[t]
		p.releaseFromJob(holder, released, preempted, l)
		if fellIdle {
			holder.pausedUtil = 0
		} else {
			holder.pausedUtil = p.cfg.RestartSec
		}
		n -= freedT
	}
}

// updateReservation refreshes (or creates) a waiting job's reservation:
// deficit, ETA from running leases' estimated completions, and remedies.
func (p *Plane) updateReservation(j *job) {
	t, need := j.spec.RequestedType, j.spec.MinGPUs
	avail := p.free[t]
	deficit := max(need-avail, 0)
	_, funded := p.sponsorFor(j.env.idx, t, need)
	if !funded {
		// funding, not capacity, is the binding constraint
		deficit = max(deficit, need-j.env.headroom(t))
	}
	eta := -1.0
	var remedies []string
	covered := avail
	for _, le := range p.leaseETAs(t) {
		if covered >= need {
			break
		}
		covered += le.lease.Count
		eta = le.eta + p.cfg.RestartSec
		if len(remedies) < 3 {
			remedies = append(remedies, fmt.Sprintf(
				"wait for lease %s of job %s (%dx%s, est. free at %.0fs)",
				le.lease.ID, le.lease.JobID, le.lease.Count, t, le.eta))
		}
	}
	if covered < need {
		eta = -1
	}
	if !funded {
		if !p.cfg.AllowBorrowing {
			for _, e := range p.envs {
				if h := e.headroom(t); e != j.env && h >= need {
					remedies = append(remedies, fmt.Sprintf(
						"enable borrowing: team %s has %dx%s idle envelope headroom", e.cfg.Name, h, t))
					break
				}
			}
		} else {
			remedies = append(remedies, fmt.Sprintf(
				"raise team %s quota: need %dx%s, headroom %d and no sponsor covers it",
				j.team, need, t, j.env.headroom(t)))
		}
	} else if lent := j.env.lent[t]; lent > 0 && avail < need {
		remedies = append(remedies, fmt.Sprintf(
			"reclaim %dx%s team %s lent out (quota-backed preemption)", lent, t, j.team))
	}
	changed := j.resv == nil || j.resv.Deficit != deficit
	if j.resv == nil {
		j.resv = &Reservation{JobID: j.spec.ID, Team: j.team, Type: t, Need: need, SinceSec: p.nowSec}
	}
	j.resv.Deficit = deficit
	j.resv.ETASec = eta
	j.resv.Remedies = remedies
	if changed {
		p.emitText(record{kind: kReserve, count: int32(deficit), job: int32(j.submitSeq)}, fmt.Sprintf(
			"job %s (team %s) waits for %dx%s: deficit %d, eta %.0fs; remedies: %s",
			j.spec.ID, j.team, need, t, deficit, eta, strings.Join(remedies, "; ")))
	}
}

// fundedPolicy is the grant-decision pass: the same greedy order as
// sched.GreedyPolicy (speedup-per-GPU desc, then more GPUs, then job ID),
// with each acceptance additionally funded against a hypothetical headroom
// view. In single-tenant mode funding can never bind (the one envelope's
// headroom IS the free pool), so the decisions are bitwise-identical to
// GreedyPolicy — the shim test pins this.
type fundedPolicy struct{ p *Plane }

// Decide implements sched.Policy.
func (fp fundedPolicy) Decide(free sched.Resources, proposals []sched.Proposal) []sched.Proposal {
	p := fp.p
	// sorted in place: the proposals are Tick's own buffer, whose order
	// nobody reads afterwards
	slices.SortStableFunc(proposals, sched.CompareProposals)
	// the funding snapshot the pass debits hypothetically before any lease is
	// minted, so one round cannot oversubscribe an envelope across several
	// jobs. It is sponsorFor's scratch: RoundPass returns before the first
	// sponsorFor, which refreshes the column it reads.
	pool, head := free.Counts(), p.head
	for i, e := range p.envs {
		for t := range head[i] {
			head[i][t] = e.headroom(device.Type(t))
		}
	}
	p.round++
	var out []sched.Proposal
	for _, pr := range proposals {
		j := p.jobs[pr.JobID]
		if j.grantedRound == p.round || pool[pr.Type] < pr.Count {
			continue
		}
		sponsor, ok := pickSponsor(head, pr.Type, j.env.idx, pr.Count, p.cfg.AllowBorrowing)
		if !ok {
			continue
		}
		head[sponsor][pr.Type] -= pr.Count
		pool[pr.Type] -= pr.Count
		j.grantedRound = p.round
		out = append(out, pr)
	}
	return out
}

// availFor bounds a job's scale-out exploration: per type, the physical free
// pool capped by the best envelope headroom that could fund the job (its
// own, or — with borrowing — the most idle sponsor's). The returned map is
// the plane's scratch, overwritten by the next call.
func (p *Plane) availFor(j *job) sched.Resources {
	for _, t := range device.AllTypes() {
		h := j.env.headroom(t)
		if p.cfg.AllowBorrowing {
			for _, e := range p.envs {
				h = max(h, e.headroom(t))
			}
		}
		p.avail[t] = min(p.free[t], h)
	}
	return p.avail
}

// Tick advances the plane to nowSec: retry reservations (priority first,
// then submission order), run one scale-out round, advance job progress, and
// sample utilization. The caller drives Tick once per TickSec of simulated
// time.
func (p *Plane) Tick(nowSec float64) {
	p.nowSec = nowSec
	// 1. reservation retries; a job that gets in leaves the waiting list
	still := p.waiting[:0]
	for _, j := range p.waiting {
		p.decisions++
		if p.tryAdmit(j) == nil {
			p.updateReservation(j)
			still = append(still, j)
		}
	}
	p.waiting = still
	// 2. scale-out round: proposals against the free pool as it stands (no
	// grant moves it before the pass), decided by the funded greedy pass,
	// granted through the intra-job schedulers
	p.proposals = p.proposals[:0]
	for _, j := range p.live {
		p.proposals = j.intra.AppendProposals(p.proposals, p.availFor(j), proposalTopK)
	}
	for _, pr := range sched.RoundPass(fundedPolicy{p}, p.free, p.proposals, p.cfg.Trace) {
		j := p.jobs[pr.JobID]
		p.decisions++
		if _, ok := j.intra.Grant(pr); ok {
			sponsor, ok := p.sponsorFor(j.env.idx, pr.Type, pr.Count)
			if !ok {
				// cannot happen: the funded pass only accepts fundable
				// proposals and intervening grants only add headroom
				sponsor = j.env.idx
				p.emitText(record{kind: kAnomaly, count: int32(pr.Count)}, fmt.Sprintf(
					"grant to %s not fundable at mint time; charging own envelope", pr.JobID))
			}
			l := p.mintLease(j, pr.Type, pr.Count, sponsor)
			p.emit(record{kind: kPlace, typ: int8(pr.Type), sponsor: int16(sponsor), count: int32(pr.Count),
				job: int32(j.submitSeq), lease: int32(l.seq), f0: pr.SpeedupTotal, f1: pr.SpeedupPerGPU})
			if unused := j.intra.TrimUnused(); unused.Total() > 0 {
				p.releaseFromJob(j, unused, trimmed, nil)
			}
			j.pausedUtil = p.cfg.RestartSec
			if !j.started {
				j.started, j.startSec = true, p.nowSec
			}
		} else {
			p.free[pr.Type] += pr.Count
		}
	}
	// 3. progress and completion (same arithmetic as the pre-plane sim); a
	// finished job leaves the live list
	running := p.live[:0]
	for _, j := range p.live {
		// the restart pause eats into the tick first
		paused := min(j.pausedUtil, p.cfg.TickSec)
		j.pausedUtil -= paused
		j.remaining -= j.intra.CurrentPlan().Throughput * (p.cfg.TickSec - paused)
		if !(j.remaining <= 0 && j.started) {
			running = append(running, j)
			continue
		}
		j.done = true
		j.finishSec = nowSec + p.cfg.TickSec
		held := j.intra.Current()
		p.releaseFromJob(j, held, finished, nil)
		p.emitText(record{kind: kFinish, count: int32(held.Total()), job: int32(j.submitSeq)}, fmt.Sprintf(
			"job %s finished at %.0fs releasing %s", j.spec.ID, j.finishSec, held))
	}
	p.live = running
	// 4. utilization sample
	total := p.cfg.Inventory.Total()
	if total > 0 {
		p.utilSum += float64(total-p.free.Total()) / float64(total)
		p.utilTicks++
	}
}

// Release ends one lease by ID: the holding job is preempted off exactly
// those GPUs (re-planning on the remainder) and the capacity returns to the
// pool. The admission tickets of fully elastic jobs ("admit-*") are not
// releasable.
func (p *Plane) Release(leaseID string) error {
	i := slices.IndexFunc(p.activeLeases, func(l *Lease) bool { return l.ID == leaseID })
	if i < 0 {
		return fmt.Errorf("controlplane: no active lease %q", leaseID)
	}
	l := p.activeLeases[i]
	j := p.jobs[l.JobID]
	var take sched.Counts
	take[l.Type] = l.Count
	released, fellIdle := j.intra.Preempt(take)
	p.emitText(record{kind: kRelease, count: int32(l.Count), lease: int32(l.seq)}, fmt.Sprintf(
		"manual release of lease %s (%dx%s, job %s)", l.ID, l.Count, l.Type, l.JobID))
	p.releaseFromJob(j, released, manual, l)
	if !fellIdle {
		j.pausedUtil = p.cfg.RestartSec
	}
	return nil
}

// Free returns the physical free pool.
func (p *Plane) Free() sched.Resources { return p.free.Clone() }

// Allocated returns the number of GPUs currently leased.
func (p *Plane) Allocated() int { return p.cfg.Inventory.Total() - p.free.Total() }

// Held returns the resources a job currently holds (none for an unknown or
// finished job).
func (p *Plane) Held(jobID string) sched.Counts {
	if j, ok := p.jobs[jobID]; ok && !j.done {
		return j.intra.Current()
	}
	return sched.Counts{}
}

// Placement renders a job's active plan (one a finished job finished on) as
// its numESTs ESTs' placement on GPUs, with the plan's estimated throughput.
func (p *Plane) Placement(jobID string, numESTs int) (core.Placement, float64) {
	j, ok := p.jobs[jobID]
	if !ok {
		return core.Placement{}, 0
	}
	return j.intra.RenderPlacement(numESTs), j.intra.CurrentPlan().Throughput
}

// Progress returns the global steps the plane has credited a job with, at
// most its WorkSteps, and whether it finished.
func (p *Plane) Progress(jobID string) (steps float64, done bool) {
	j, ok := p.jobs[jobID]
	if !ok {
		return 0, false
	}
	return min(j.spec.WorkSteps-j.remaining, j.spec.WorkSteps), j.done
}

// Observe feeds a job's measured throughput, in the plan's units, to its
// intra-job scheduler (Role-3 of §3.4). A job that scaled out since and
// misses the plan falls back to its previous GPUs and pays a restart pause;
// the GPUs it gives up are retired from its leases and returned. fell
// reports the fallback, which may release nothing.
func (p *Plane) Observe(jobID string, measured float64) (released sched.Counts, fell bool) {
	j, ok := p.jobs[jobID]
	if !ok || j.done {
		return sched.Counts{}, false
	}
	released, fell = j.intra.ObserveThroughput(measured)
	if !fell {
		return sched.Counts{}, false
	}
	p.releaseFromJob(j, released, fellBack, nil)
	j.pausedUtil = p.cfg.RestartSec
	return released, true
}

// Decisions counts admission decisions taken so far: submissions,
// reservation retries, and scale-out grants.
func (p *Plane) Decisions() int { return p.decisions }

// FinishedCount returns how many jobs have completed: every registered job is
// waiting, live or done.
func (p *Plane) FinishedCount() int { return len(p.order) - len(p.live) - len(p.waiting) }

// JobStat is one job's lifecycle summary.
type JobStat struct {
	ID         string
	Team       string
	ArrivalSec float64
	Started    bool
	Done       bool
	StartSec   float64
	FinishSec  float64
}

// JobStats lists every submitted job in submission order.
func (p *Plane) JobStats() []JobStat {
	out := make([]JobStat, len(p.order))
	for i, j := range p.order {
		out[i] = JobStat{
			ID: j.spec.ID, Team: j.team, ArrivalSec: j.spec.ArrivalSec,
			Started: j.started, Done: j.done,
			StartSec: j.startSec, FinishSec: j.finishSec,
		}
	}
	return out
}

// OpenReservations lists the waiting jobs' reservations in submission order.
func (p *Plane) OpenReservations() []Reservation {
	var out []Reservation
	for _, j := range p.order {
		if j.resv != nil && !j.admitted && !j.done {
			out = append(out, *j.resv)
		}
	}
	return out
}

// TeamReport is one envelope's utilization summary.
type TeamReport struct {
	Name     string
	Quota    sched.Counts
	InUse    sched.Counts
	Lent     sched.Counts
	Borrowed sched.Counts
}

// Report summarizes the plane: per-team envelopes, fragmentation and
// consolidation per type, time-averaged utilization, and counters. Admitted
// and Finished are read off the job registries; LeasesMinted, Borrows and
// Reclaims count the log's lease, borrow and preempt records.
type Report struct {
	Strategy         string
	NowSec           float64
	Teams            []TeamReport
	Frag             []TypeFrag
	Utilization      float64
	LeasesMinted     int
	LeasesActive     int
	ReservationsOpen int
	Admitted         int
	Finished         int
	Borrows          int
	Reclaims         int
	Log              []string
}

// Report builds the current report.
func (p *Plane) Report() Report {
	kinds := p.kindCounts()
	r := Report{
		Strategy:         p.cfg.Strategy.Name(),
		NowSec:           p.nowSec,
		Frag:             fragmentation(p.nodes),
		LeasesMinted:     kinds[kLease],
		LeasesActive:     len(p.activeLeases),
		ReservationsOpen: len(p.OpenReservations()),
		Admitted:         len(p.order) - len(p.waiting),
		Finished:         p.FinishedCount(),
		Borrows:          kinds[kBorrow],
		Reclaims:         kinds[kPreempt],
		Log:              p.DecisionLog(),
	}
	if p.utilTicks > 0 {
		r.Utilization = p.utilSum / float64(p.utilTicks)
	}
	for _, e := range p.envs {
		r.Teams = append(r.Teams, TeamReport{Name: e.cfg.Name, Quota: e.quota, InUse: e.inUse, Lent: e.lent, Borrowed: e.borrowed})
	}
	return r
}
