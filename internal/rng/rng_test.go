package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminismSameSeed(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

// restore returns a stream positioned exactly at st.
func restore(st State) *Stream {
	s := new(Stream)
	s.SetState(st)
	return s
}

func TestStateRoundTrip(t *testing.T) {
	s := New(7)
	for i := 0; i < 37; i++ {
		s.Uint64()
	}
	st := s.State()
	want := make([]uint64, 50)
	for i := range want {
		want[i] = s.Uint64()
	}
	r := restore(st)
	for i := range want {
		if got := r.Uint64(); got != want[i] {
			t.Fatalf("restored stream draw %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestStateRoundTripProperty(t *testing.T) {
	f := func(seed uint64, skip uint8) bool {
		s := New(seed)
		for i := 0; i < int(skip); i++ {
			s.Uint64()
		}
		st := s.State()
		a := s.Uint64()
		return restore(st).Uint64() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		s.Uint64()
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		var r Stream
		if err := r.UnmarshalBinary(data); err != nil {
			return false
		}
		return r.Uint64() == s.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalBadLength(t *testing.T) {
	var s Stream
	if err := s.UnmarshalBinary(make([]byte, 31)); err == nil {
		t.Fatal("expected error for short buffer")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformish(t *testing.T) {
	s := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	for i, c := range counts {
		if c < draws/n*8/10 || c > draws/n*12/10 {
			t.Fatalf("bucket %d count %d deviates >20%% from expected %d", i, c, draws/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(13)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := make([]int, m)
		for i := range p {
			p[i] = i
		}
		s.ShuffleInts(p)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewNamedIndependent(t *testing.T) {
	a := NewNamed(1, "python")
	b := NewNamed(1, "torch")
	if a.Uint64() == b.Uint64() {
		t.Fatal("named streams from same seed should differ")
	}
	c := NewNamed(1, "python")
	c2 := NewNamed(1, "python")
	if c.Uint64() != c2.Uint64() {
		t.Fatal("same-named streams from same seed should match")
	}
}

func TestBundleStateRoundTrip(t *testing.T) {
	b := NewBundle(1234)
	b.Python.Uint64()
	b.Torch.Uint64()
	st := b.State()
	w1, w2, w3 := b.Python.Uint64(), b.NumPy.Uint64(), b.Torch.Uint64()
	r := NewBundle(0)
	r.SetState(st)
	if r.Python.Uint64() != w1 || r.NumPy.Uint64() != w2 || r.Torch.Uint64() != w3 {
		t.Fatal("bundle restore did not reproduce draws")
	}
}

func TestBundleMarshalRoundTrip(t *testing.T) {
	b := NewBundle(77)
	b.NumPy.Uint64()
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r Bundle
	if err := r.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if r.NumPy.Uint64() != b.NumPy.Uint64() {
		t.Fatal("bundle binary round trip diverged")
	}
	if err := r.UnmarshalBinary(data[:10]); err == nil {
		t.Fatal("expected error on short bundle buffer")
	}
}

func TestBernoulliBias(t *testing.T) {
	s := New(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) frequency %v", got)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.NormFloat64()
	}
}
