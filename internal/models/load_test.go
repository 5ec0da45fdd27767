package models_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainedContainer trains the named model briefly and returns its sharded
// checkpoint container plus the live job for bitwise comparison.
func trainedContainer(t *testing.T, name string, steps int) ([]byte, *core.Job) {
	t.Helper()
	cfg := core.DefaultConfig(1)
	cfg.Seed = 11
	j, err := core.NewJob(cfg, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(core.EvenPlacement(1, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := j.RunSteps(steps); err != nil {
		t.Fatal(err)
	}
	return j.Checkpoint(), j
}

// TestServableMatchesTrainedJob pins the load path end to end: a Servable
// loaded from a real core.Job container holds bitwise the job's trained
// parameters (and implicit state), and its forward pass is usable for
// inference.
func TestServableMatchesTrainedJob(t *testing.T) {
	for _, name := range []string{"neumf", "mlp", "shufflenetv2"} {
		t.Run(name, func(t *testing.T) {
			ckpt, j := trainedContainer(t, name, 2)
			s, err := models.Load(name, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name != name || s.Seed != 11 || s.Step != 2 {
				t.Fatalf("servable identity: %+v", s)
			}
			want := j.Workload.Params()
			got := s.Net.Params()
			if len(want) != len(got) {
				t.Fatalf("param groups: %d vs %d", len(got), len(want))
			}
			for i := range want {
				if want[i].Value.Hash64() != got[i].Value.Hash64() {
					t.Fatalf("parameter %d (%s) not bitwise restored", i, want[i].Name)
				}
			}
			if st, ok := s.Net.(nn.Stateful); ok {
				// Load restores virtual rank 0's replica: the state tensors of
				// the trained job's EST 0 context, bit for bit
				var w checkpoint.Writer
				j.ExportESTContext(&w, 0)
				r := checkpoint.NewReader(w.Bytes())
				h, err := checkpoint.ReadESTHead(r)
				sts := st.StateTensors()
				if err != nil || h.States != len(sts) {
					t.Fatalf("EST 0 context holds %d state tensors (%v), the servable %d", h.States, err, len(sts))
				}
				for i, got := range sts {
					want := tensor.New(got.Shape()...)
					if err := r.TensorInto(want); err != nil {
						t.Fatal(err)
					}
					if got.Hash64() != want.Hash64() {
						t.Fatalf("state tensor %d is not bitwise rank 0's", i)
					}
				}
			}
			// the servable must run inference
			x := tensor.New(append([]int{2}, s.InShape...)...)
			if name == "neumf" {
				x.Data[0], x.Data[1], x.Data[2], x.Data[3] = 1, 2, 3, 4
			}
			dev := device.New(device.V100, device.Config{DeterministicKernels: true, Selection: device.SelectHeuristic})
			out := s.Net.Forward(&nn.Context{Dev: dev, Training: false}, x)
			if out.Dim(0) != 2 {
				t.Fatalf("forward output shape %v", out.Shape())
			}
			for _, v := range out.Data {
				if math.IsNaN(float64(v)) {
					t.Fatal("forward produced NaN")
				}
			}
		})
	}
}

// TestLoadTypedErrors is the failure-mode table: every bad input maps to the
// right sentinel through errors.Is.
func TestLoadTypedErrors(t *testing.T) {
	ckpt, _ := trainedContainer(t, "neumf", 1)

	t.Run("unknown-name", func(t *testing.T) {
		if _, err := models.Load("no-such-model", ckpt); !errors.Is(err, models.ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
	})
	t.Run("wrong-model-id", func(t *testing.T) {
		_, err := models.Load("vgg19", ckpt)
		if !errors.Is(err, models.ErrNotFound) {
			t.Fatalf("want ErrNotFound for a container holding another model, got %v", err)
		}
		if errors.Is(err, models.ErrCorrupt) {
			t.Fatalf("a well-formed container must not read as corrupt: %v", err)
		}
	})
	t.Run("missing-manifest-group", func(t *testing.T) {
		m, set, err := checkpoint.DecodeContainer(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var kept checkpoint.Manifest
		kept.Progress = m.Progress
		for _, e := range m.Entries {
			if e.ID != "meta" {
				kept.Entries = append(kept.Entries, e)
			}
		}
		mangled, err := checkpoint.EncodeContainer(kept, set)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := models.Load("neumf", mangled); !errors.Is(err, models.ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for a manifest without meta, got %v", err)
		}
	})
	t.Run("truncated-shard", func(t *testing.T) {
		for _, cut := range []int{len(ckpt) - 1, len(ckpt) / 2, 16} {
			if _, err := models.Load("neumf", ckpt[:cut]); !errors.Is(err, models.ErrCorrupt) {
				t.Fatalf("truncation at %d: want ErrCorrupt, got %v", cut, err)
			}
		}
	})
}

// TestTableNamesSubsetOfRegistry pins the trace generator's draw population:
// every Table 1 name must exist in the registry, and the serving-only "mlp"
// must stay out of the table so generated traces keep the paper's mix.
func TestTableNamesSubsetOfRegistry(t *testing.T) {
	all := map[string]bool{}
	for _, n := range models.Names() {
		all[n] = true
	}
	for _, n := range models.TableNames() {
		if !all[n] {
			t.Fatalf("TableNames entry %q not in registry", n)
		}
		if n == "mlp" {
			t.Fatal("mlp must not be drawn by the trace generator")
		}
	}
	if !all["mlp"] {
		t.Fatal("registry must include the serving mlp workload")
	}
}
