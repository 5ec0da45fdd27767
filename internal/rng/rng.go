// Package rng provides deterministic, serializable, splittable pseudo-random
// number generation for EasyScale.
//
// Every source of randomness in the training stack (data shuffling, data
// augmentation, dropout, weight initialization) draws from a Stream. A
// Stream's complete state is a fixed-size value that can be captured into an
// EasyScaleThread context or an on-demand checkpoint and restored bitwise,
// which is a precondition for the D0 determinism level of the paper (§3.3):
// restarting training from a checkpoint must resume every generator exactly
// where it left off.
//
// Streams are splittable: independent child streams are derived from a parent
// deterministically, so per-EST and per-data-worker generators can be created
// without coordination while remaining reproducible.
package rng

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Stream is a deterministic PRNG (xoshiro256++ core seeded via SplitMix64)
// whose entire state is exported. The zero value is not valid; use New, or
// SetState to a captured state.
type Stream struct {
	s [4]uint64
}

// New returns a Stream seeded from seed. Distinct seeds yield uncorrelated
// streams.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		sm, st.s[i] = splitmix64(sm)
	}
	// A xoshiro state of all zeros is a fixed point; splitmix64 of any seed
	// cannot produce four zero outputs in a row, but guard regardless.
	if st.s == ([4]uint64{}) {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

const fnvOffset = 14695981039346656037 // FNV-64 offset basis

// fnv64a folds the bytes of b into the FNV-64a hash h.
func fnv64a[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// NewNamed returns a Stream derived from seed and a textual name, so that
// differently named generators (e.g. "python", "numpy", "torch") seeded from
// the same master seed are independent.
func NewNamed(seed uint64, name string) *Stream {
	return New(seed ^ fnv64a(fnvOffset, name))
}

// Name is the hash NewNamed derives from a stream name, built piece by piece
// so that a name with numbers in it is never formatted:
// NameOf("dw-e").Int(3).Str("-r").Int(0).Stream(seed) is the stream
// NewNamed(seed, "dw-e3-r0") returns.
type Name uint64

// NameOf starts a name with s.
func NameOf(s string) Name { return Name(fnv64a(fnvOffset, s)) }

// Str appends s to the name.
func (n Name) Str(s string) Name { return Name(fnv64a(uint64(n), s)) }

// Int appends the decimal digits of i to the name, hashed from a stack buffer.
func (n Name) Int(i int) Name {
	var digits [20]byte // len("-9223372036854775808")
	return Name(fnv64a(uint64(n), strconv.AppendInt(digits[:0], int64(i), 10)))
}

// Stream returns the stream of that name under seed as a value; New inlines
// here, so it allocates nothing.
func (n Name) Stream(seed uint64) Stream { return *New(seed ^ uint64(n)) }

// Indexed returns the stream NewNamed(seed, prefix+strconv.Itoa(i)) returns,
// as a value, without building the name, so deriving one stream per dataset
// item allocates nothing.
func Indexed(seed uint64, prefix string, i int) Stream { return NameOf(prefix).Int(i).Stream(seed) }

func splitmix64(x uint64) (next, out uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	r := rotl(s.s[0]+s.s[3], 23) + s.s[0]
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return r
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, deterministic across
	// platforms (pure integer arithmetic).
	un := uint64(n)
	v := s.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	return aHi*bHi + w2 + (w1 >> 32), a * b
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate via the Box-Muller transform.
// The transform is computed fresh each call (no cached spare) so the Stream
// state remains exactly the xoshiro words, keeping serialization trivial and
// bitwise-stable.
func (s *Stream) NormFloat64() float64 {
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue
		}
		u2 := s.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// NormFloat32 returns a standard normal variate as float32.
func (s *Stream) NormFloat32() float32 { return float32(s.NormFloat64()) }

// ShuffleInts shuffles p in place (Fisher-Yates).
func (s *Stream) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.Float64() < p }

// State captures the complete generator state.
type State struct {
	S [4]uint64
}

// State returns a snapshot of the stream state.
func (s *Stream) State() State { return State{S: s.s} }

// SetState rewinds/advances s to exactly st.
func (s *Stream) SetState(st State) { s.s = st.S }

// stateBytes is the wire size of a marshalled State.
const stateBytes = 32

// MarshalBinary encodes the stream state (32 bytes, little-endian).
func (s *Stream) MarshalBinary() ([]byte, error) {
	buf := make([]byte, stateBytes)
	for i, w := range s.s {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return buf, nil
}

// UnmarshalBinary decodes a state produced by MarshalBinary.
func (s *Stream) UnmarshalBinary(data []byte) error {
	if len(data) != stateBytes {
		return fmt.Errorf("rng: bad state length %d, want %d", len(data), stateBytes)
	}
	for i := range s.s {
		s.s[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	return nil
}

// Bundle groups the named generators a training process depends on,
// mirroring the Python / NumPy / framework RNGs the paper identifies as
// implicit framework state that must be recorded for determinism.
type Bundle struct {
	Python *Stream // data loader shuffling, user-level randomness
	NumPy  *Stream // augmentation randomness
	Torch  *Stream // framework randomness: dropout, init
}

// NewBundle derives the three named generators from one master seed.
func NewBundle(seed uint64) *Bundle {
	return &Bundle{
		Python: NewNamed(seed, "python"),
		NumPy:  NewNamed(seed, "numpy"),
		Torch:  NewNamed(seed, "torch"),
	}
}

// BundleState snapshots all three generators.
type BundleState struct {
	Python, NumPy, Torch State
}

// State snapshots the bundle.
func (b *Bundle) State() BundleState {
	return BundleState{Python: b.Python.State(), NumPy: b.NumPy.State(), Torch: b.Torch.State()}
}

// SetState restores the bundle to st.
func (b *Bundle) SetState(st BundleState) {
	b.Python.SetState(st.Python)
	b.NumPy.SetState(st.NumPy)
	b.Torch.SetState(st.Torch)
}

// ErrShortBuffer is returned by Bundle unmarshalling on truncated input.
var ErrShortBuffer = errors.New("rng: short buffer")

// MarshalBinary encodes the bundle state (96 bytes).
func (b *Bundle) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 3*stateBytes)
	for _, s := range []*Stream{b.Python, b.NumPy, b.Torch} {
		bs, _ := s.MarshalBinary()
		out = append(out, bs...)
	}
	return out, nil
}

// UnmarshalBinary decodes a bundle state produced by MarshalBinary.
func (b *Bundle) UnmarshalBinary(data []byte) error {
	if len(data) != 3*stateBytes {
		return ErrShortBuffer
	}
	if b.Python == nil {
		b.Python, b.NumPy, b.Torch = &Stream{}, &Stream{}, &Stream{}
	}
	if err := b.Python.UnmarshalBinary(data[:stateBytes]); err != nil {
		return err
	}
	if err := b.NumPy.UnmarshalBinary(data[stateBytes : 2*stateBytes]); err != nil {
		return err
	}
	return b.Torch.UnmarshalBinary(data[2*stateBytes:])
}
