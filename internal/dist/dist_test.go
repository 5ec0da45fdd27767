package dist

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
)

func distCfg(ests int) core.Config {
	cfg := core.DefaultConfig(ests)
	cfg.BatchPerEST = 4
	cfg.D2 = true
	// keep failure-path tests fast: nothing in-process should ever take
	// close to this long, but a wedged path fails in seconds, not 30s
	cfg.DistTimeout = 5 * time.Second
	return cfg
}

// inProcessReference runs the single-process engine over the same schedule.
func inProcessReference(t *testing.T, cfg core.Config, workload string, phases []Phase) *core.Job {
	t.Helper()
	j, err := core.NewJob(cfg, workload)
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range phases {
		if i == 0 {
			err = j.Attach(ph.Placement)
		} else {
			err = j.Scale(ph.Placement)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := j.RunSteps(ph.Steps); err != nil {
			t.Fatal(err)
		}
	}
	return j
}

func restore(t *testing.T, cfg core.Config, ckpt []byte) *core.Job {
	t.Helper()
	j, err := core.RestoreJob(cfg, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// policies is the boundary-policy axis of the table tests: the one runtime
// under stop-restart (Run's default) and under live migration.
var policies = []struct {
	name string
	opts []Option
}{
	{"restart", nil},
	{"live", []Option{WithLiveMigration()}},
}

// TestClusterMatchesInProcess: a 2-worker TCP cluster trains 4 ESTs and must
// produce bitwise-identical parameters to the single-process engine, under
// either boundary policy.
func TestClusterMatchesInProcess(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 8}}
	ref := inProcessReference(t, cfg, "electra", phases)
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			ckpt, err := Run(cfg, "electra", phases, pol.opts...)
			if err != nil {
				t.Fatal(err)
			}
			distJob := restore(t, cfg, ckpt)
			if !core.ParamsEqual(distJob, ref) {
				t.Fatal("TCP cluster diverged from the in-process engine (must be bitwise identical)")
			}
			if distJob.GlobalStep() != 8 {
				t.Fatalf("progress %d, want 8", distJob.GlobalStep())
			}
		})
	}
}

// TestElasticScaleMatchesFixedDDP: scale 4 workers → 1 worker → 2
// heterogeneous workers; bitwise equal to fixed DDP. Under restart every
// boundary is a fresh worker set restored from the directory's container;
// under live it is a scale-in (leavers serving their shards out), then a
// scale-out (a joiner restoring from its peer) into a heterogeneous mix.
func TestElasticScaleMatchesFixedDDP(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), Steps: 6},
		{Placement: core.EvenPlacement(4, device.V100), Steps: 6},
		{Placement: core.EvenPlacement(4, device.V100, device.P100), Steps: 6},
	}
	fixed := []Phase{{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), Steps: 18}}
	ref := inProcessReference(t, cfg, "bert", fixed)
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			ckpt, err := Run(cfg, "bert", phases, pol.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !core.ParamsEqual(restore(t, cfg, ckpt), ref) {
				t.Fatal("TCP elastic run diverged from fixed-DoP DDP (must be bitwise identical)")
			}
		})
	}
}

// TestPoliciesMatchBitwise is the migrate-vs-restart equivalence on the one
// runtime: the same elastic schedule under the restart policy and under live
// migration must produce bitwise-identical final checkpoints, both equal to
// the in-process engine scaling along the same schedule. vgg19 puts dropout
// RNG and BatchNorm stats — the state that physically migrates between
// workers — under the comparison.
func TestPoliciesMatchBitwise(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 4},
		{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100), Steps: 4},
		{Placement: core.EvenPlacement(4, device.V100), Steps: 4},
	}
	ref := inProcessReference(t, cfg, "vgg19", phases)
	jobs := make([]*core.Job, len(policies))
	for i, pol := range policies {
		ckpt, err := Run(cfg, "vgg19", phases, pol.opts...)
		if err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		jobs[i] = restore(t, cfg, ckpt)
		if got, want := jobs[i].GlobalStep(), ref.GlobalStep(); got != want {
			t.Fatalf("%s: progress %d, want %d", pol.name, got, want)
		}
		if !core.ParamsEqual(jobs[i], ref) {
			t.Fatalf("%s policy diverged from the in-process engine (must be bitwise identical)", pol.name)
		}
	}
	if !core.ParamsEqual(jobs[0], jobs[1]) {
		t.Fatal("live migration diverged from stop-restart (must be bitwise identical)")
	}
}

// TestTCPUnevenESTDistribution: 3 ESTs over 2 workers (2+1) exercises
// followers with different EST counts.
func TestTCPUnevenESTDistribution(t *testing.T) {
	cfg := distCfg(3)
	phases := []Phase{{Placement: core.EvenPlacement(3, device.V100, device.V100), Steps: 5}}
	ckpt, err := Run(cfg, "neumf", phases)
	if err != nil {
		t.Fatal(err)
	}
	distJob := restore(t, cfg, ckpt)
	ref := inProcessReference(t, cfg, "neumf", phases)
	if !core.ParamsEqual(distJob, ref) {
		t.Fatal("uneven TCP cluster diverged from in-process engine")
	}
}

// TestTCPCheckpointCarriesESTContexts: a model with dropout and BatchNorm
// exercises RNG and implicit-state gathering across workers; the next
// phase's fresh worker set must continue bitwise-exactly.
func TestTCPCheckpointCarriesESTContexts(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 5},
		{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100), Steps: 5},
	}
	ckpt, err := Run(cfg, "vgg19", phases)
	if err != nil {
		t.Fatal(err)
	}
	distJob := restore(t, cfg, ckpt)
	ref := inProcessReference(t, cfg, "vgg19", []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 10},
	})
	if !core.ParamsEqual(distJob, ref) {
		t.Fatal("EST contexts (dropout RNG / BatchNorm stats) not carried bitwise across phases")
	}
}

// TestRunWorkerRejectsNonD1: the one worker entry point enforces the
// runtime's determinism floor before it opens a socket.
func TestRunWorkerRejectsNonD1(t *testing.T) {
	cfg := distCfg(2)
	cfg.Level = core.D0
	err := RunWorker(WorkerSpec{Cfg: cfg, Workload: "neumf", CoordAddr: "127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), "D1") {
		t.Fatalf("expected D1 requirement error, got %v", err)
	}
}

func TestRunValidatesPlacement(t *testing.T) {
	cfg := distCfg(4)
	_, err := Run(cfg, "neumf", []Phase{{Placement: core.Placement{}, Steps: 1}})
	if err == nil {
		t.Fatal("invalid placement must error")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		WriteFrame(a, MsgReduced, []byte("hello world"))
	}()
	typ, payload, err := ReadFrame(b)
	if err != nil || typ != MsgReduced || string(payload) != "hello world" {
		t.Fatalf("frame round trip: %v %v %q", typ, err, payload)
	}
	go func() {
		WriteFrame(a, MsgShipDone, nil)
	}()
	if _, err := Expect(b, MsgGrads); err == nil {
		t.Fatal("Expect must reject wrong frame type")
	}
}

func TestCoordinatorValidation(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunPhase(distCfg(2), 1, Phase{Steps: 1}, nil); err == nil {
		t.Fatal("zero workers must error")
	}
	if _, err := c.RunPhase(distCfg(2), 1, Phase{Placement: core.EvenPlacement(2, device.V100), Steps: 1}, []byte("junk")); err == nil {
		t.Fatal("a corrupt restore container must error")
	}
	if c.Addr() == "" {
		t.Fatal("empty coordinator address")
	}
}

func TestGradsCodecRoundTrip(t *testing.T) {
	bufs := map[int][][]float32{
		2: {{1, 2, 3}, {4}},
		5: {{9, 8, 7}, {6}},
	}
	data := gradsPayload(7, bufs, []int{2, 5})
	table := tableFor(6, 3, 1)
	defer table.release()
	step, err := decodeGrads(data, []int{2, 5}, table)
	if err != nil || step != 7 {
		t.Fatalf("decode: step=%d err=%v", step, err)
	}
	if table.bufs[2][0][1] != 2 || table.bufs[5][1][0] != 6 {
		t.Fatalf("content mismatch: %v", table.bufs)
	}
	for cut := 0; cut < len(data); cut++ {
		trunc := tableFor(6, 3, 1)
		if _, err := decodeGrads(data[:cut], []int{2, 5}, trunc); err == nil {
			t.Fatalf("grads truncated to %d bytes must error", cut)
		}
		trunc.release()
	}
}

// TestResilientRecoversFromCrash injects deterministic mid-gather crashes
// (budget-bounded, so with MaxRetries ≥ Budget the run must converge); the
// retried phases must reproduce the uninterrupted run bitwise ("no EasyScale
// job fails" — §5.3).
func TestResilientRecoversFromCrash(t *testing.T) {
	cfg := distCfg(4)
	phases := []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 6},
		{Placement: core.EvenPlacement(4, device.V100, device.V100, device.V100), Steps: 6},
	}
	plan := &faults.Plan{
		Seed:   1,
		Budget: 2,
		Rules:  map[faults.Site]faults.Rule{faults.Gather: {Prob: 1, Action: faults.Crash}},
	}
	ckpt, err := Run(cfg, "electra", phases,
		WithRetryPolicy(RetryPolicy{MaxRetries: 2, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}),
		WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fired() == 0 {
		t.Fatal("fault plan never fired — crash path not exercised")
	}
	distJob := restore(t, cfg, ckpt)
	ref := inProcessReference(t, cfg, "electra", []Phase{
		{Placement: core.EvenPlacement(4, device.V100, device.V100), Steps: 12},
	})
	if !core.ParamsEqual(distJob, ref) {
		t.Fatal("crash-recovered run diverged from the uninterrupted reference")
	}
}

// TestResilientExhaustsRetries: permanent failures surface an error.
func TestResilientExhaustsRetries(t *testing.T) {
	cfg := distCfg(2)
	phases := []Phase{{Placement: core.EvenPlacement(2, device.V100, device.V100), Steps: 8}}
	plan := &faults.Plan{
		Seed:   1,
		Budget: 1,
		Rules:  map[faults.Site]faults.Rule{faults.Gather: {Prob: 1, Action: faults.Crash}},
	}
	// zero retries: the single (crashed) attempt is the only one
	_, err := Run(cfg, "neumf", phases, WithFaultPlan(plan))
	if err == nil {
		t.Fatal("injected crash must surface as an error")
	}
	if !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("error should wrap the injected crash, got: %v", err)
	}
}

// sendHello plays a worker's rendezvous hello on a raw connection.
func sendHello(c net.Conn, epoch uint64) error {
	w := checkpoint.NewWriter()
	w.PutUint64(epoch)
	w.PutString("127.0.0.1:9") // a listen address nobody dials in a one-worker phase
	return WriteFrame(c, MsgHello, w.Bytes())
}

// TestCoordinatorDeadlineOnHungWorker: a worker that connects and then goes
// silent must surface as a deadline error within the rendezvous timeout, not
// block the phase forever — and the timeout is one budget for the whole
// rendezvous, not one per accept and hello read: a straggler's stale hello
// late in the window must not buy the epoch a fresh accept timeout, inside
// which a silent connection then buys a hello-read timeout on top.
func TestCoordinatorDeadlineOnHungWorker(t *testing.T) {
	const timeout = 300 * time.Millisecond
	one := Phase{Placement: core.EvenPlacement(2, device.V100), Steps: 1}
	for _, tc := range []struct {
		name string
		// staleAfter > 0 sends a stale-epoch hello that late into the window
		// and opens the silent connection as much later again
		staleAfter time.Duration
	}{
		{"silent-from-the-start", 0},
		{"silent-after-a-late-stale-hello", 250 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinator()
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			coord.SetTimeout(timeout)

			release := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if tc.staleAfter > 0 {
					time.Sleep(tc.staleAfter)
					if stale, err := net.Dial("tcp", coord.Addr()); err == nil {
						defer stale.Close()
						if err := sendHello(stale, 6); err != nil {
							t.Error(err)
						}
					}
					time.Sleep(tc.staleAfter)
				}
				// connects, never sends a hello; by now a coordinator that
				// honours its deadline may already have given up
				if hung, err := net.Dial("tcp", coord.Addr()); err == nil {
					defer hung.Close()
				}
				<-release
			}()

			start := time.Now()
			_, err = coord.RunPhase(distCfg(2), 7, one, nil)
			elapsed := time.Since(start)
			close(release)
			wg.Wait()
			if err == nil {
				t.Fatal("hung worker must produce an error")
			}
			if elapsed > 2*timeout {
				t.Fatalf("coordinator took %v to give up on a hung worker (timeout %v)", elapsed, timeout)
			}
		})
	}
}

// TestWorkerDialDeadCoordinatorFailsFast: dialing a dead rendezvous endpoint
// must error within the configured deadline instead of hanging.
func TestWorkerDialDeadCoordinatorFailsFast(t *testing.T) {
	cfg := distCfg(2)
	cfg.DistTimeout = 300 * time.Millisecond
	spec := WorkerSpec{
		Cfg: cfg, Workload: "neumf",
		CoordAddr: "127.0.0.1:1", // reserved port: nothing listens here
		Epoch:     1,
	}
	start := time.Now()
	err := RunWorker(spec)
	if err == nil {
		t.Fatal("dialing a dead coordinator must error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("worker took %v to give up on a dead coordinator", elapsed)
	}
}

// TestStaleEpochRejected: a straggler hello from a previous attempt is
// answered with MsgReject and does not consume an admission slot; the
// current-epoch worker is still admitted, and is reconfigured under the
// current epoch.
func TestStaleEpochRejected(t *testing.T) {
	coord, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetTimeout(2 * time.Second)
	const epoch = 2 // epoch 1 is the "crashed attempt"
	one := Phase{Placement: core.EvenPlacement(2, device.V100), Steps: 3}

	staleErr := make(chan error, 1)
	phaseDone := make(chan error, 1)
	go func() {
		// straggler from epoch 1
		c, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			staleErr <- err
			return
		}
		defer c.Close()
		if err := sendHello(c, epoch-1); err != nil {
			staleErr <- err
			return
		}
		typ, payload, err := ReadFrame(c)
		if err != nil {
			staleErr <- err
			return
		}
		if typ != MsgReject || !strings.Contains(string(payload), "stale epoch") {
			staleErr <- errFrame(typ)
			return
		}
		staleErr <- nil

		// now the legitimate epoch-2 worker joins and plays a minimal
		// single-worker phase: hello → reconfigure → ready → (empty)
		// directory ship → phase done → depart
		phaseDone <- func() error {
			c2, err := net.Dial("tcp", coord.Addr())
			if err != nil {
				return err
			}
			defer c2.Close()
			if err := sendHello(c2, epoch); err != nil {
				return err
			}
			raw, err := Expect(c2, MsgReconfigure)
			if err != nil {
				return err
			}
			rc, err := decodeReconfig(raw)
			if err != nil {
				return err
			}
			if rc.Epoch != epoch || rc.Slot != 0 || rc.Kind != kindFresh || rc.Steps != one.Steps {
				return fmt.Errorf("reconfigure epoch=%d slot=%d kind=%d steps=%d", rc.Epoch, rc.Slot, rc.Kind, rc.Steps)
			}
			if err := WriteFrame(c2, MsgReady, nil); err != nil {
				return err
			}
			if _, err := shipShards(withDeadline(c2, 2*time.Second), checkpoint.Manifest{}, checkpoint.NewShardSet(0)); err != nil {
				return err
			}
			if err := WriteFrame(c2, MsgPhaseDone, nil); err != nil {
				return err
			}
			_, err = Expect(c2, MsgDepart)
			return err
		}()
	}()

	container, err := coord.RunPhase(distCfg(2), epoch, one, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, _, err := checkpoint.DecodeContainer(container); err != nil || len(m.Entries) != 0 {
		t.Fatalf("phase returned manifest %v, err %v; want the worker's empty one", m, err)
	}
	if err := <-staleErr; err != nil {
		t.Fatalf("stale worker: %v", err)
	}
	if err := <-phaseDone; err != nil {
		t.Fatalf("fresh worker: %v", err)
	}
}

func errFrame(t MsgType) error { return &frameErr{t} }

type frameErr struct{ t MsgType }

func (e *frameErr) Error() string { return "unexpected frame type " + string(rune('0'+e.t)) }

// TestMergeGradsValidation: duplicate, unassigned, missing, and
// wrong-bucket-count contributions must all be protocol errors — never a
// silent overwrite of another EST's gradients or a nil-slot panic in the
// reduce loop.
func TestMergeGradsValidation(t *testing.T) {
	ranks := []int{1, 2} // the follower's slice of a 4-rank placement
	decode := func(bufs map[int][][]float32, order ...int) (*gradTable, error) {
		table := tableFor(4, 1)
		t.Cleanup(table.release)
		_, err := decodeGrads(gradsPayload(0, bufs, order), ranks, table)
		return table, err
	}

	// vrank the follower does not host
	if _, err := decode(map[int][][]float32{0: {{1}}, 1: {{2}}}, 0, 1); !errors.Is(err, errGradsRanks) {
		t.Fatalf("unassigned vrank: %v", err)
	}
	// missing vrank (only one of two)
	if _, err := decode(map[int][][]float32{1: {{2}}}, 1); !errors.Is(err, errGradsRanks) {
		t.Fatalf("missing vrank: %v", err)
	}
	// wrong bucket count
	if _, err := decode(map[int][][]float32{1: {{1}}, 2: {{2}, {3}}}, 1, 2); !errors.Is(err, errBucketCount) {
		t.Fatalf("bucket-count mismatch: %v", err)
	}
	// valid contribution merges
	table, err := decode(map[int][][]float32{1: {{1}}, 2: {{2}}}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if table.bufs[1][0][0] != 1 || table.bufs[2][0][0] != 2 || table.have[0] || table.have[3] {
		t.Fatalf("merged table %v, have %v", table.bufs, table.have)
	}
	// the same vrank twice
	w := checkpoint.NewWriter()
	w.PutInt(0) // step
	w.PutInt(2) // two rank entries...
	for i := 0; i < 2; i++ {
		w.PutInt(2) // ...both claiming vrank 2
		w.PutInt(1)
		w.PutFloat32s([]float32{float32(i)})
	}
	dup := tableFor(4, 1)
	defer dup.release()
	if _, err := decodeGrads(w.Bytes(), ranks, dup); !errors.Is(err, errGradsRanks) {
		t.Fatalf("duplicate vrank in frame: %v", err)
	}
}

// TestWriteFrameRejectsOversizedPayload: a payload the uint32 length header
// cannot carry must be rejected before any bytes hit the wire.
func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	huge := make([]byte, maxFrame+1)
	errCh := make(chan error, 1)
	go func() { errCh <- WriteFrame(a, MsgGrads, huge) }()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "exceeds") && !strings.Contains(err.Error(), "refusing") {
			t.Fatalf("oversized payload: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WriteFrame attempted to write an oversized frame (blocked on pipe)")
	}
}
