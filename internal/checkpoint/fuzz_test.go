package checkpoint

import (
	"errors"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// fuzzSeedBlob builds a valid encoding touching every writer primitive.
func fuzzSeedBlob() []byte {
	w := NewWriter()
	w.PutUint64(7)
	w.PutInt(-3)
	w.PutBool(true)
	w.PutFloat64(3.5)
	w.PutString("easy-scale")
	w.PutFloat32s([]float32{1, 2, 3})
	w.PutInts([]int{4, 5})
	w.PutTensor(tensor.FromData([]float32{1, 2, 3, 4}, 2, 2))
	w.PutRNGState(rng.New(1).State())
	return w.Bytes()
}

// FuzzReader: decoding arbitrary bytes through every typed read must never
// panic; each failure must surface as (or wrap) ErrCorrupt, so corrupt
// checkpoints are always rejected cleanly.
func FuzzReader(f *testing.F) {
	f.Add(fuzzSeedBlob())
	f.Add([]byte{})
	f.Add(fuzzSeedBlob()[:11])
	// shape/data mismatch seeds: tensors whose shape numel disagrees with the
	// data section's element count, in both directions — Tensor must reject
	// them via the numel-vs-Remaining cross-check, not crash or misread
	over := NewWriter()
	over.PutInts([]int{2, 3})
	over.PutFloat32s([]float32{1, 2, 3, 4})
	f.Add(over.Bytes())
	under := NewWriter()
	under.PutInts([]int{2})
	under.PutFloat32s([]float32{1, 2, 3, 4})
	f.Add(under.Bytes())
	// count-bomb seeds: a declared element count the remaining bytes cannot
	// possibly back must be rejected by the length-vs-Remaining cross-check
	// before any allocation. The padding steers the walk's read rotation so
	// the bomb is hit through String, Float32s, Ints, and Tensor.
	for _, pad := range []int{0, 1, 2, 6} {
		bomb := NewWriter()
		bomb.PutInt(1 << 40)
		for i := 0; i < pad; i++ {
			bomb.PutBool(false)
		}
		f.Add(bomb.Bytes())
	}

	check := func(t *testing.T, err error) {
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("reader error does not wrap ErrCorrupt: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for r.Remaining() > 0 {
			// walk the buffer through a rotation of every typed read; any
			// error must be ErrCorrupt and must stop the walk
			var err error
			switch r.Remaining() % 7 {
			case 0:
				_, err = readTensor(r)
			case 1:
				_, err = r.String()
			case 2:
				_, err = r.Float32s()
			case 3:
				_, err = r.Ints()
			case 4:
				_, err = r.RNGState()
			case 5:
				_, err = r.Float64()
			default:
				_, err = r.Bool()
			}
			if err != nil {
				check(t, err)
				return
			}
		}
		// draining past the end must also fail cleanly
		if _, err := r.Uint64(); err != nil {
			check(t, err)
		}
		if err := r.TensorInto(tensor.FromData([]float32{0}, 1)); err != nil {
			check(t, err)
		}
	})
}

// TestReaderCorruptionAlwaysErrCorrupt is the deterministic smoke of the
// fuzz property: truncations and bit flips of a valid blob decode to either
// valid values or ErrCorrupt, never a panic or a foreign error.
func TestReaderCorruptionAlwaysErrCorrupt(t *testing.T) {
	base := fuzzSeedBlob()
	s := rng.New(2026)
	for i := 0; i < 3000; i++ {
		data := append([]byte(nil), base...)
		if s.Bernoulli(0.5) {
			data = data[:s.Intn(len(data))]
		} else {
			for k := 0; k <= s.Intn(4); k++ {
				data[s.Intn(len(data))] ^= byte(1 + s.Intn(255))
			}
		}
		r := NewReader(data)
		for {
			_, err := r.String()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("iteration %d: error %v does not wrap ErrCorrupt", i, err)
				}
				break
			}
			if r.Remaining() == 0 {
				break
			}
			if _, err := readTensor(r); err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("iteration %d: error %v does not wrap ErrCorrupt", i, err)
				}
				break
			}
			if r.Remaining() == 0 {
				break
			}
		}
	}
}
