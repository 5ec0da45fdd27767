package core

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/rng"
)

// TestRestoreNeverPanicsOnCorruption: arbitrary corruption of a checkpoint —
// truncation, bit flips, splices — must surface as an error, never a panic
// or a silently wrong job.
func TestRestoreNeverPanicsOnCorruption(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	j := runSteps(t, cfg, "neumf", EvenPlacement(2, device.V100), 3)
	good := j.Checkpoint()

	mutate := func(seed uint64) []byte {
		s := rng.New(seed)
		data := append([]byte(nil), good...)
		switch s.Intn(3) {
		case 0: // truncate
			if len(data) > 1 {
				data = data[:s.Intn(len(data))]
			}
		case 1: // flip random bytes
			for k := 0; k < 1+s.Intn(8); k++ {
				data[s.Intn(len(data))] ^= byte(1 + s.Intn(255))
			}
		default: // splice a random chunk
			a, b := s.Intn(len(data)), s.Intn(len(data))
			if a > b {
				a, b = b, a
			}
			copy(data[a:b], data[:b-a])
		}
		return data
	}

	f := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		data := mutate(seed)
		restored, err := RestoreJob(cfg, data)
		if err != nil {
			return true // rejected cleanly
		}
		// a mutation may leave the payload valid (e.g. flips inside float
		// data): the job must still be usable
		if err := restored.Attach(EvenPlacement(2, device.V100)); err != nil {
			return true
		}
		return restored.RunStep() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// exportEST returns EST rank's context as ExportESTContext encodes it.
func exportEST(j *Job, rank int) []byte {
	var w checkpoint.Writer
	j.ExportESTContext(&w, rank)
	return w.Bytes()
}

// TestESTContextImportRejectsCorruption mirrors the fuzz for the distributed
// EST-context path.
func TestESTContextImportRejectsCorruption(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	j := runSteps(t, cfg, "vgg19", EvenPlacement(2, device.V100), 2)
	good := exportEST(j, 1)

	f := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		s := rng.New(seed)
		data := append([]byte(nil), good...)
		if s.Bernoulli(0.5) && len(data) > 1 {
			data = data[:s.Intn(len(data))]
		} else {
			for k := 0; k < 1+s.Intn(4); k++ {
				data[s.Intn(len(data))] ^= byte(1 + s.Intn(255))
			}
		}
		_ = j.ImportESTContext(checkpoint.NewReader(data)) // error or clean apply, never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestESTContextRoundTrip: export → import reproduces the context bitwise.
func TestESTContextRoundTrip(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	a := runSteps(t, cfg, "vgg19", EvenPlacement(2, device.V100), 3)
	b := runSteps(t, cfg, "vgg19", EvenPlacement(2, device.V100), 3)

	// perturb b's EST 1 context, then restore it from a's export
	b.ests[1].RNG.Torch.Uint64()
	for _, st := range b.ests[1].ModelState {
		st.Fill(0)
	}
	if err := b.ImportESTContext(checkpoint.NewReader(exportEST(a, 1))); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.ests[1], b.ests[1]
	if sa.RNG.Torch.Uint64() != sb.RNG.Torch.Uint64() {
		t.Fatal("RNG state not restored bitwise")
	}
	for i := range sa.ModelState {
		if !sa.ModelState[i].Equal(sb.ModelState[i]) {
			t.Fatal("model state not restored bitwise")
		}
	}
}

// FuzzJobCheckpoint swaps the meta or the est/0000 group of a real
// checkpoint for fuzzed bytes and re-addresses the shard, so the bytes pass
// the container's hash check and reach the job-schema decoders, where byte
// flips in a hashed shard never get. RestoreJob and models.Load must return a
// value or an error and never panic; Load's errors must be typed, and when
// both succeed they must agree on the model's identity and progress.
func FuzzJobCheckpoint(f *testing.F) {
	const name = "shufflenetv2" // stateful: Load reads est/0000 too
	cfg := testCfg(D1, false, 2)
	j, err := NewJob(cfg, name)
	if err == nil {
		err = j.Attach(EvenPlacement(2, device.V100))
	}
	if err == nil {
		err = j.RunSteps(2)
	}
	if err != nil {
		f.Fatal(err)
	}
	m, set := j.BuildShards()
	shard := func(id string) []byte {
		i := slices.IndexFunc(m.Entries, func(e checkpoint.ManifestEntry) bool { return e.ID == id })
		b, _ := set.Get(m.Entries[i].Hash)
		return b
	}
	meta, est0 := shard(checkpoint.MetaShardID), shard(checkpoint.ESTShardID(0))
	f.Add(false, meta)
	f.Add(false, meta[:len(meta)/2])
	f.Add(false, []byte{})
	f.Add(true, est0)
	f.Add(true, est0[:100])

	f.Fuzz(func(t *testing.T, est bool, b []byte) {
		id := checkpoint.MetaShardID
		if est {
			id = checkpoint.ESTShardID(0)
		}
		fm := checkpoint.Manifest{Progress: m.Progress, Entries: slices.Clone(m.Entries)}
		fset, err := set.Subset(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fm.Entries {
			if fm.Entries[i].ID == id {
				fm.Entries[i].Hash, fm.Entries[i].Len = fset.Put(b), len(b)
			}
		}
		ckpt, err := checkpoint.EncodeContainer(fm, fset)
		if err != nil {
			t.Fatal(err)
		}
		job, jerr := RestoreJob(cfg, ckpt)
		s, lerr := models.Load(name, ckpt)
		if lerr != nil && !errors.Is(lerr, models.ErrCorrupt) && !errors.Is(lerr, models.ErrNotFound) {
			t.Fatalf("models.Load error is neither ErrCorrupt nor ErrNotFound: %v", lerr)
		}
		if jerr == nil && lerr == nil &&
			(s.Name != job.Workload.Name || s.Seed != job.Cfg.Seed || s.Step != int64(job.GlobalStep())) {
			t.Fatalf("Load read %s seed %d step %d, RestoreJob %s seed %d step %d",
				s.Name, s.Seed, s.Step, job.Workload.Name, job.Cfg.Seed, job.GlobalStep())
		}
	})
}
