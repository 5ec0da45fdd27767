package dist

import (
	"fmt"
	"net"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// Coordinator is the rendezvous and elasticity controller (the AIMaster
// analog): workers register with a hello and are then driven through
// reconfigure frames that carry slot, leader address, placement, step budget
// and the phase-entry state; at the end of each phase the leader ships the new
// boundary state into the coordinator's shard directory.
//
// Every blocking operation — accepting a worker, reading its hello, waiting
// for a phase to complete — is bounded by the coordinator's timeout, so a
// hung or vanished worker surfaces as a deadline error instead of wedging the
// run. Rendezvous is epoch-tagged: a phase attempt admits only hellos
// carrying its own epoch, so a straggler from a crashed attempt can never be
// admitted into the retry.
type Coordinator struct {
	ln      net.Listener
	timeout time.Duration
	epoch   uint64
}

// NewCoordinator starts the rendezvous listener on an ephemeral loopback
// port.
func NewCoordinator() (*Coordinator, error) { return NewCoordinatorAddr("127.0.0.1:0") }

// NewCoordinatorAddr starts the rendezvous listener on a specific address,
// for multi-process deployments where workers are launched with a known
// rendezvous endpoint.
func NewCoordinatorAddr(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Coordinator{ln: ln, timeout: DefaultTimeout}, nil
}

// Addr returns the rendezvous address workers dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// SetTimeout overrides the per-operation deadline (accept, frame
// read/write); d <= 0 keeps the current one, DefaultTimeout from the
// constructor.
func (c *Coordinator) SetTimeout(d time.Duration) {
	if d > 0 {
		c.timeout = d
	}
}

// Close shuts the rendezvous listener down.
func (c *Coordinator) Close() { c.ln.Close() }

// beginEpoch advances to and returns the next rendezvous epoch. The driver
// calls it once per phase attempt, so every retry gets a fresh epoch and
// stale workers are fenced out.
func (c *Coordinator) beginEpoch() uint64 {
	c.epoch++
	return c.epoch
}

// admit accepts worker connections until `workers` hellos carrying `epoch`
// have arrived and returns a handle per worker in admission order. Hellos
// from any other epoch are answered with MsgReject and do not consume a
// slot. On error everything admitted so far is closed.
func (c *Coordinator) admit(epoch uint64, workers int) (hs []*handle, err error) {
	defer func() {
		if err != nil {
			for _, h := range hs {
				h.ctrl.Close()
			}
			hs = nil
		}
	}()
	deadline := time.Now().Add(c.timeout)
	for len(hs) < workers {
		// one timeout covers the whole rendezvous: each accept (and the hello
		// read behind it) gets only what is left of it
		left := time.Until(deadline)
		if left <= 0 {
			return hs, fmt.Errorf("dist: epoch %d: admitted %d of %d workers before rendezvous deadline", epoch, len(hs), workers)
		}
		cn, err := acceptTimeout(c.ln, left)
		if err != nil {
			return hs, fmt.Errorf("dist: epoch %d: admitted %d of %d workers: %w", epoch, len(hs), workers, err)
		}
		payload, err := Expect(cn, MsgHello)
		if err != nil {
			cn.Close()
			return hs, err
		}
		r := checkpoint.NewReader(payload)
		helloEpoch, _ := r.Uint64()
		addr, err := r.String() // sticky: fails if the epoch's read did
		if err != nil {
			cn.Close()
			return hs, err
		}
		if helloEpoch != epoch {
			// a straggler from a crashed earlier attempt (or a worker
			// launched for a future one): fence it out, keep accepting
			reason := fmt.Sprintf("stale epoch %d (current %d)", helloEpoch, epoch)
			WriteFrame(cn, MsgReject, []byte(reason))
			cn.Close()
			continue
		}
		// admitted: from here on every operation gets the full timeout again
		cn.timeout = c.timeout
		hs = append(hs, &handle{ctrl: cn, addr: addr})
	}
	return hs, nil
}

// Phase is one resource allocation of an elastic run: a placement and the
// global steps to train on it.
type Phase struct {
	Placement core.Placement
	Steps     int
}

// RunPhase drives one phase on workers launched by someone else — separate OS
// processes running RunWorker with this coordinator's address and the given
// rendezvous epoch. It admits one worker per placement entry, bootstraps them
// from container (a checkpoint container of an earlier phase; nil starts a
// fresh job), trains the phase, departs the set, and returns the new
// checkpoint container. It is Run's driver without a spawner and with no
// retries: a launcher that can relaunch workers retries by calling it again
// under the next epoch.
func (c *Coordinator) RunPhase(cfg core.Config, epoch uint64, ph Phase, container []byte) ([]byte, error) {
	d := newDriver(c, cfg, runOptions{})
	if container != nil {
		var err error
		if d.dirM, d.dirSet, err = checkpoint.DecodeContainer(container); err != nil {
			return nil, fmt.Errorf("dist: restore container: %w", err)
		}
		d.dirHas = true
	}
	c.epoch = epoch - 1 // the single attempt begins exactly epoch
	return d.run([]Phase{ph})
}
