package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/models"
)

// TestBuildShardsDeltaReuse pins the incremental-write contract: rebuilding
// shards from unchanged state re-encodes to the same bytes (identical
// manifest, empty delta), and after a training step the delta plus the
// previous shard set is sufficient to restore — the bytes a worker already
// holds never need re-shipping.
func TestBuildShardsDeltaReuse(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	j := mustJob(t, cfg, "vgg19", EvenPlacement(4, device.V100, device.V100))
	if err := j.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}

	m1, s1 := j.BuildShards()
	m2, _ := j.BuildShards()
	if string(m1.Encode()) != string(m2.Encode()) {
		t.Fatal("rebuild from unchanged state produced a different manifest")
	}
	if d := m2.Diff(m1); len(d) != 0 {
		t.Fatalf("rebuild from unchanged state has a %d-entry delta, want 0", len(d))
	}

	if err := j.RunSteps(1); err != nil {
		t.Fatal(err)
	}
	m3, s3 := j.BuildShards()
	delta := m3.Diff(m1)
	if len(delta) == 0 {
		t.Fatal("a training step produced an empty delta (meta alone must change)")
	}

	// incremental ship: a holder of the previous shards needs only the delta
	inc := checkpoint.NewShardSet(0)
	for _, e := range m3.Entries {
		if b, ok := s1.Get(e.Hash); ok {
			if err := inc.Add(e.Hash, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range delta {
		b, ok := s3.Get(e.Hash)
		if !ok {
			t.Fatalf("delta entry %q missing from its own build", e.ID)
		}
		if err := inc.Add(e.Hash, b); err != nil {
			t.Fatal(err)
		}
	}
	if miss := inc.Missing(m3); len(miss) != 0 {
		t.Fatalf("previous shards + delta leave %d shards missing", len(miss))
	}

	r, err := RestoreJobShards(cfg, m3, inc)
	if err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(j, r) || r.GlobalStep() != j.GlobalStep() {
		t.Fatal("restore from incrementally assembled shards diverged from the live job")
	}
}

// TestBuildShardsSharesNoState: a BuildShards result is the caller's to keep
// or destroy. Scribbling over every shard byte of one build changes neither
// the next build of the same state nor the build after a training step — the
// job holds no encoding between calls for a caller to alias.
func TestBuildShardsSharesNoState(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	place := EvenPlacement(4, device.V100, device.V100)
	j := mustJob(t, cfg, "vgg19", place)
	twin := mustJob(t, cfg, "vgg19", place)
	for _, job := range []*Job{j, twin} {
		if err := job.RunSteps(2); err != nil {
			t.Fatal(err)
		}
	}

	scribble := func(m checkpoint.Manifest, s *checkpoint.ShardSet) {
		for _, e := range m.Entries {
			b, _ := s.Get(e.Hash)
			for i := range b {
				b[i] ^= 0xA5
			}
		}
	}
	intact := func(m checkpoint.Manifest, s *checkpoint.ShardSet) {
		t.Helper()
		for _, e := range m.Entries {
			if b, ok := s.Get(e.Hash); !ok || checkpoint.HashBytes(b) != e.Hash {
				t.Fatalf("shard %q no longer matches its address", e.ID)
			}
		}
	}

	m1, s1 := j.BuildShards()
	want := string(m1.Encode())
	scribble(m1, s1)
	m2, s2 := j.BuildShards()
	if string(m2.Encode()) != want {
		t.Fatal("scribbling over one build's shards changed the next build's manifest")
	}
	intact(m2, s2)
	scribble(m2, s2)

	for _, job := range []*Job{j, twin} {
		if err := job.RunStep(); err != nil {
			t.Fatal(err)
		}
	}
	m3, s3 := j.BuildShards()
	ref, _ := twin.BuildShards()
	if string(m3.Encode()) != string(ref.Encode()) {
		t.Fatal("manifest after a step differs from a twin job that never had its shards scribbled")
	}
	intact(m3, s3)
}

// TestShardRestoreMatchesBlobRestore: the sharded restore path and the
// monolithic container path decode to bitwise-identical jobs — the manifest,
// not the transport, defines the state — and a job restored from BuildShards
// trains on bitwise with the job it was cut from: its parameters, moments and
// EST contexts after two more steps are the original's. A restore builds its
// net without weight init, so a group it failed to overwrite would show as
// zeros. Every model of the zoo, on one GPU and on two, where the second GPU
// grows a replica.
func TestShardRestoreMatchesBlobRestore(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	for _, name := range models.Names() {
		for _, p := range []Placement{EvenPlacement(4, device.V100), EvenPlacement(4, device.V100, device.P100)} {
			t.Run(fmt.Sprintf("%s/%dgpu", name, len(p.Devices)), func(t *testing.T) {
				j := runSteps(t, cfg, name, p, consistencySteps)
				m, set := j.BuildShards()
				fromShards, err := RestoreJobShards(cfg, m, set)
				if err != nil {
					t.Fatal(err)
				}
				fromBlob, err := RestoreJob(cfg, j.Checkpoint())
				if err != nil {
					t.Fatal(err)
				}
				if !ParamsEqual(fromShards, fromBlob) {
					t.Fatal("shard restore and blob restore decode different parameters")
				}
				if fromShards.GlobalStep() != fromBlob.GlobalStep() {
					t.Fatal("shard restore and blob restore disagree on progress")
				}
				if err := fromShards.Attach(p); err != nil {
					t.Fatal(err)
				}
				for _, job := range []*Job{j, fromShards} {
					if err := job.RunSteps(2); err != nil {
						t.Fatal(err)
					}
				}
				if !ParamsEqual(j, fromShards) {
					t.Fatal("restored job's parameters diverge from the original's")
				}
				want, got := j.opt.StateTensors(), fromShards.opt.StateTensors()
				for i := range want {
					if !want[i].Equal(got[i]) {
						t.Fatalf("restored job's moment %d diverges from the original's", i)
					}
				}
				for r := range j.ests {
					if !bytes.Equal(exportEST(j, r), exportEST(fromShards, r)) {
						t.Fatalf("restored job's EST %d context diverges from the original's", r)
					}
				}
			})
		}
	}
}

// TestShardWriteAtNRestoreAtM: shards written at one elastic phase boundary
// restore correctly onto a *different* placement at the next — train at N
// workers, restore at M, repeat — and the whole journey stays bitwise equal
// to the uninterrupted fixed-placement run (the Figure 9 guarantee, through
// the sharded path instead of the monolithic blob). The hops cross device
// types, so the config is D1+D2 — the level that makes heterogeneous
// placements bitwise-comparable to the fixed V100 reference.
func TestShardWriteAtNRestoreAtM(t *testing.T) {
	cfg := testCfg(D1, true, 4)
	ref := runSteps(t, cfg, "vgg19", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), 3*consistencySteps)

	j := mustJob(t, cfg, "vgg19", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100))
	if err := j.RunSteps(consistencySteps); err != nil {
		t.Fatal(err)
	}
	hops := []Placement{
		EvenPlacement(4, device.V100, device.P100),
		EvenPlacement(4, device.V100),
	}
	for _, p := range hops {
		m, set := j.BuildShards()
		r, err := RestoreJobShards(cfg, m, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Attach(p); err != nil {
			t.Fatal(err)
		}
		if err := r.RunSteps(consistencySteps); err != nil {
			t.Fatal(err)
		}
		j = r
	}
	if !ParamsEqual(ref, j) {
		t.Fatal("write-at-N/restore-at-M elastic run (4→2→1 GPUs) diverged from fixed 4-GPU DDP")
	}
	if j.GlobalStep() != ref.GlobalStep() {
		t.Fatal("progress mismatch")
	}
}

// TestScaleLiveMatchesScaleBitwise: live migration (keep the job's state,
// swap only the physical attachment) is bitwise-equivalent at D1 to the
// stop-restart Scale path across a shrinking and device-heterogeneous
// schedule — the equivalence that lets the dist runtime migrate ESTs without
// a global stop.
func TestScaleLiveMatchesScaleBitwise(t *testing.T) {
	cfg := testCfg(D1, false, 4)
	start := EvenPlacement(4, device.V100, device.V100, device.V100, device.V100)
	schedule := []Placement{
		EvenPlacement(4, device.V100, device.P100),
		EvenPlacement(4, device.T4, device.T4),
		EvenPlacement(4, device.V100),
	}

	stop := mustJob(t, cfg, "resnet50", start)
	live := mustJob(t, cfg, "resnet50", start)
	for _, j := range []*Job{stop, live} {
		if err := j.RunSteps(consistencySteps); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range schedule {
		if err := stop.Scale(p); err != nil {
			t.Fatal(err)
		}
		if err := live.ScaleLive(p); err != nil {
			t.Fatal(err)
		}
		for _, j := range []*Job{stop, live} {
			if err := j.RunSteps(consistencySteps); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !ParamsEqual(stop, live) {
		t.Fatal("ScaleLive diverged from stop-restart Scale at D1")
	}
	if stop.ParamsHash() != live.ParamsHash() {
		t.Fatal("params hash mismatch between Scale and ScaleLive")
	}
}

// TestFailedScaleLiveKeepsJobTraining: a rescale to a placement that is
// invalid or cannot be admitted must be refused before the old GPUs are
// released. Both ScaleLive and Scale return the error and the job goes on
// training on the placement it had, bitwise equal to a job that never tried.
func TestFailedScaleLiveKeepsJobTraining(t *testing.T) {
	v100 := []device.Type{device.V100}
	small := func(t *testing.T) *Job {
		return mustJob(t, testCfg(D1, false, 2), "neumf", EvenPlacement(2, device.V100, device.V100))
	}
	// shufflenetv2 at batch 600 needs ~17 GB: it trains on a 64 GB device and
	// cannot be admitted to the 16 GB V100 a placement asks for.
	bigCfg := testCfg(D1, false, 1)
	bigCfg.BatchPerEST = 600
	big := func(t *testing.T) *Job {
		j, err := NewJob(bigCfg, "shufflenetv2")
		if err != nil {
			t.Fatal(err)
		}
		roomy := device.NewWithMemory(device.V100, 64*1024, bigCfg.DeviceConfig())
		if err := j.AttachDevices(EvenPlacement(1, device.V100), []*device.Device{roomy}); err != nil {
			t.Fatal(err)
		}
		return j
	}
	cases := []struct {
		name string
		mk   func(*testing.T) *Job
		bad  Placement
		oom  bool
	}{
		{"empty", small, Placement{}, false},
		{"rank-twice", small, Placement{Devices: v100, Assignment: [][]int{{0, 0}}}, false},
		{"oom", big, EvenPlacement(1, device.V100), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tried, control := c.mk(t), c.mk(t)
			for _, j := range []*Job{tried, control} {
				if err := j.RunSteps(2); err != nil {
					t.Fatal(err)
				}
			}
			before := tried.Placement()
			usedMB := tried.Devices()[0].UsedMB()
			for name, scale := range map[string]func(Placement) error{"ScaleLive": tried.ScaleLive, "Scale": tried.Scale} {
				err := scale(c.bad)
				if err == nil {
					t.Fatalf("%s accepted the placement", name)
				}
				if c.oom && !errors.Is(err, device.ErrOOM) {
					t.Fatalf("%s: expected OOM, got %v", name, err)
				}
				if !tried.Attached() || len(tried.Placement().Devices) != len(before.Devices) {
					t.Fatalf("%s: refused rescale moved the job: attached=%v placement=%+v", name, tried.Attached(), tried.Placement())
				}
				if got := tried.Devices()[0].UsedMB(); got != usedMB {
					t.Fatalf("%s: refused rescale changed the old GPU's allocation: %v → %v MB", name, usedMB, got)
				}
			}
			for _, j := range []*Job{tried, control} {
				if err := j.RunSteps(2); err != nil {
					t.Fatalf("job cannot train after a refused rescale: %v", err)
				}
			}
			if !ParamsEqual(tried, control) || tried.ParamsHash() != control.ParamsHash() {
				t.Fatal("a refused rescale reached the bits")
			}
			if lossBits(tried) != lossBits(control) {
				t.Fatal("a refused rescale reached the losses")
			}
		})
	}
}

// TestCheckpointBytesGolden pins the checkpoint format: the container of a
// fixed-seed bert job after three steps hashes (FNV-64a over its 51,337
// bytes) to the value recorded before shards, manifests and containers were
// encoded into exactly sized buffers, so "the wire format did not change by a
// byte" is a test and not a claim.
func TestCheckpointBytesGolden(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.BatchPerEST = 4
	cfg.Seed = 7
	j, err := NewJob(cfg, "bert")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(EvenPlacement(4, device.V100, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(3); err != nil {
		t.Fatal(err)
	}
	ckpt := j.Checkpoint()
	if h := checkpoint.HashBytes(ckpt); len(ckpt) != 51337 || h != 0x6d160bc802455c79 {
		t.Fatalf("checkpoint is %d bytes hashing to %#x, want 51337 and 0x6d160bc802455c79", len(ckpt), h)
	}
	if h := checkpoint.HashBytes(exportEST(j, 0)); h != 0x8beaf6eb836fc9b2 {
		t.Fatalf("EST context hashes to %#x, want 0x8beaf6eb836fc9b2", h)
	}
}

// TestESTShardRankParsesCanonicalIDsOnly: the rank parser inverts ESTShardID
// and nothing else — every other group ID, and every non-canonical spelling
// of a rank, is not an EST shard.
func TestESTShardRankParsesCanonicalIDsOnly(t *testing.T) {
	for _, r := range []int{0, 7, 42, 9999, 10000, 123456} {
		if got, ok := checkpoint.ESTShardRank(checkpoint.ESTShardID(r)); !ok || got != r {
			t.Errorf("checkpoint.ESTShardRank(%q) = %d, %v", checkpoint.ESTShardID(r), got, ok)
		}
	}
	for _, id := range []string{checkpoint.MetaShardID, "param/0003", "moment/0003", "est/", "est/3", "est/003", "est/00003", "est/-003", "est/+003", "est/12a4", "est/0003 ", "EST/0003"} {
		if r, ok := checkpoint.ESTShardRank(id); ok {
			t.Errorf("checkpoint.ESTShardRank(%q) = %d, want not an EST shard", id, r)
		}
	}
}
