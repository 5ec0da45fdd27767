package core

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/rng"
)

// TestPlacementInvarianceProperty is the paper's central claim as a
// property-based test: for *randomly drawn* placements of the same logical
// job — random GPU counts, random GPU types, random EST groupings — the
// trained parameters under D1+D2 are bitwise identical.
func TestPlacementInvarianceProperty(t *testing.T) {
	cfg := testCfg(D1, true, 4)
	ref := runSteps(t, cfg, "electra", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), 6)
	refHash := ref.ParamsHash()

	randomPlacement := func(s *rng.Stream) Placement {
		types := device.AllTypes()
		workers := s.Intn(4) + 1
		p := Placement{}
		// arbitrary grouping: shuffled ranks dealt round-robin to workers
		perm := []int{0, 1, 2, 3}
		s.ShuffleInts(perm)
		p.Assignment = make([][]int, workers)
		for i, r := range perm {
			w := i % workers
			p.Assignment[w] = append(p.Assignment[w], r)
		}
		for w := 0; w < workers; w++ {
			p.Devices = append(p.Devices, types[s.Intn(len(types))])
		}
		return p
	}

	f := func(seed uint64) bool {
		s := rng.New(seed)
		p := randomPlacement(s)
		if err := p.Validate(4); err != nil {
			return true // degenerate draw (empty worker) — skip
		}
		j, err := NewJob(cfg, "electra")
		if err != nil {
			return false
		}
		if err := j.Attach(p); err != nil {
			return false
		}
		if err := j.RunSteps(6); err != nil {
			return false
		}
		return j.ParamsHash() == refHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal("random placement broke bitwise consistency:", err)
	}
}

// TestScaleScheduleInvarianceProperty: random *schedules* of scale events
// (random steps between scales, random target placements) leave the final
// parameters bitwise identical to the uninterrupted run.
func TestScaleScheduleInvarianceProperty(t *testing.T) {
	cfg := testCfg(D1, true, 4)
	const totalSteps = 12
	ref := runSteps(t, cfg, "neumf", EvenPlacement(4, device.V100, device.V100, device.V100, device.V100), totalSteps)
	refHash := ref.ParamsHash()

	f := func(seed uint64) bool {
		s := rng.New(seed)
		j, err := NewJob(cfg, "neumf")
		if err != nil {
			return false
		}
		types := device.AllTypes()
		first := true
		done := 0
		for done < totalSteps {
			n := s.Intn(3) + 1
			p := EvenPlacement(4, func() []device.Type {
				k := s.Intn(4) + 1
				out := make([]device.Type, k)
				for i := range out {
					out[i] = types[s.Intn(len(types))]
				}
				return out
			}()...)
			if first {
				err = j.Attach(p)
				first = false
			} else {
				err = j.Scale(p)
			}
			if err != nil {
				return false
			}
			if done+n > totalSteps {
				n = totalSteps - done
			}
			if err := j.RunSteps(n); err != nil {
				return false
			}
			done += n
		}
		return j.ParamsHash() == refHash
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal("random scale schedule broke bitwise consistency:", err)
	}
}
