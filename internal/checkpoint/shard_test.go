package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// randomManifest builds a manifest whose shards are real encoded bytes, so
// entry hashes and lengths are honest content addresses.
func randomManifest(s *rng.Stream, groups int) (Manifest, *ShardSet) {
	m := Manifest{Progress: int64(s.Intn(1 << 30))}
	set := NewShardSet(0)
	for g := 0; g < groups; g++ {
		w := NewWriter()
		// a random tag keeps shard contents distinct across groups and
		// manifests (an empty float section would otherwise make every empty
		// group one shared content address)
		w.PutUint64(s.Uint64())
		n := s.Intn(64)
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = s.NormFloat32()
		}
		w.PutFloat32s(buf)
		b := w.Bytes()
		h := HashBytes(b)
		m.Entries = append(m.Entries, ManifestEntry{ID: fmt.Sprintf("group/%04d", g), Hash: h, Len: len(b)})
		if err := set.Add(h, b); err != nil {
			panic(err)
		}
	}
	return m, set
}

func manifestsEqual(a, b Manifest) bool {
	if a.Progress != b.Progress || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// TestManifestRoundTripProperty: encode/decode is the identity on manifests,
// and re-encoding is bitwise stable — the property the shard directory and
// every peer fetch plan rest on.
func TestManifestRoundTripProperty(t *testing.T) {
	s := rng.New(41)
	for trial := 0; trial < 200; trial++ {
		m, _ := randomManifest(s, s.Intn(20))
		enc := m.Encode()
		got, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !manifestsEqual(m, got) {
			t.Fatalf("trial %d: manifest round trip mismatch", trial)
		}
		re := got.Encode()
		if string(re) != string(enc) {
			t.Fatalf("trial %d: re-encode not bitwise stable", trial)
		}
	}
}

// TestManifestDiffProperty: Diff returns exactly the entries whose content
// hash is absent from prev, in manifest order — the incremental-ship set.
func TestManifestDiffProperty(t *testing.T) {
	s := rng.New(42)
	for trial := 0; trial < 200; trial++ {
		prev, _ := randomManifest(s, 1+s.Intn(15))
		next := Manifest{Progress: prev.Progress + 1}
		kept := map[uint64]bool{}
		var wantDelta []ManifestEntry
		for i, e := range prev.Entries {
			if s.Bernoulli(0.5) {
				// unchanged group: same content, possibly renamed
				e.ID = fmt.Sprintf("renamed/%04d", i)
				next.Entries = append(next.Entries, e)
				kept[e.Hash] = true
			}
		}
		fresh, _ := randomManifest(s, s.Intn(6))
		for _, e := range fresh.Entries {
			next.Entries = append(next.Entries, e)
			if !kept[e.Hash] {
				wantDelta = append(wantDelta, e)
			}
		}
		got := next.Diff(prev)
		if len(got) != len(wantDelta) {
			t.Fatalf("trial %d: delta has %d entries, want %d", trial, len(got), len(wantDelta))
		}
		for i := range got {
			if got[i] != wantDelta[i] {
				t.Fatalf("trial %d: delta entry %d = %+v, want %+v", trial, i, got[i], wantDelta[i])
			}
		}
	}
}

// TestContainerRoundTrip: a container reproduces its manifest and every
// shard bitwise, and duplicate content is stored once.
func TestContainerRoundTrip(t *testing.T) {
	s := rng.New(43)
	m, set := randomManifest(s, 8)
	// two extra groups sharing one content: the container must dedup them
	dup := []byte("identical-moment-shard")
	h := HashBytes(dup)
	if err := set.Add(h, dup); err != nil {
		t.Fatal(err)
	}
	m.Entries = append(m.Entries,
		ManifestEntry{ID: "dup/0000", Hash: h, Len: len(dup)},
		ManifestEntry{ID: "dup/0001", Hash: h, Len: len(dup)})

	enc, err := EncodeContainer(m, set)
	if err != nil {
		t.Fatal(err)
	}
	gotM, gotSet, err := DecodeContainer(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !manifestsEqual(m, gotM) {
		t.Fatal("container manifest mismatch")
	}
	if gotSet.Len() != set.Len() {
		t.Fatalf("container holds %d shards, want %d (dedup)", gotSet.Len(), set.Len())
	}
	for _, e := range m.Entries {
		want, _ := set.Get(e.Hash)
		got, ok := gotSet.Get(e.Hash)
		if !ok || string(got) != string(want) {
			t.Fatalf("shard %q not reproduced bitwise", e.ID)
		}
	}
}

// TestContainerCorruptionAlwaysErrCorrupt: truncations and bit flips of a
// valid container decode to ErrCorrupt, never a panic or a foreign error.
// The content addresses make every shard byte load-bearing.
func TestContainerCorruptionAlwaysErrCorrupt(t *testing.T) {
	s := rng.New(44)
	m, set := randomManifest(s, 6)
	base, err := EncodeContainer(m, set)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), base...)
		if s.Bernoulli(0.5) {
			data = data[:s.Intn(len(data))]
		} else {
			for k := 0; k <= s.Intn(4); k++ {
				data[s.Intn(len(data))] ^= byte(1 + s.Intn(255))
			}
		}
		if _, _, err := DecodeContainer(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("iteration %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
}

// TestShardSetAddVerifiesAddress: a shard whose bytes do not hash to the
// claimed address is rejected — the property that makes fetching from any
// peer safe.
func TestShardSetAddVerifiesAddress(t *testing.T) {
	set := NewShardSet(0)
	b := []byte("shard-bytes")
	if err := set.Add(HashBytes(b), b); err != nil {
		t.Fatal(err)
	}
	if err := set.Add(HashBytes(b)^1, b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong content address accepted: %v", err)
	}
	if set.Len() != 1 {
		t.Fatalf("set holds %d shards, want 1", set.Len())
	}
}

// TestShardSetPutAndSubset: Put addresses locally built bytes with the hash
// Add would have verified (FNV-1a, pinned against hash/fnv), and Subset keeps
// exactly a manifest's shards, sharing their bytes, and reports a gap.
func TestShardSetPutAndSubset(t *testing.T) {
	set := NewShardSet(2)
	keep, drop := []byte("kept shard"), []byte("dropped shard")
	ref := fnv.New64a()
	ref.Write(keep)
	hk := set.Put(keep)
	if hk != ref.Sum64() || hk != HashBytes(keep) {
		t.Fatalf("Put addressed the shard %016x, hash/fnv says %016x", hk, ref.Sum64())
	}
	if err := set.Add(hk, keep); err != nil {
		t.Fatalf("Add rejects the address Put computed: %v", err)
	}
	set.Put(drop)

	m := Manifest{Entries: []ManifestEntry{{ID: "a", Hash: hk, Len: len(keep)}}}
	sub, err := set.Subset(m)
	if err != nil || sub.Len() != 1 {
		t.Fatalf("Subset: %d shards, err %v", sub.Len(), err)
	}
	if b, ok := sub.Get(hk); !ok || &b[0] != &keep[0] {
		t.Fatal("Subset does not share the kept shard's bytes")
	}
	m.Entries = append(m.Entries, ManifestEntry{ID: "b", Hash: hk ^ 1})
	if _, err := set.Subset(m); err == nil {
		t.Fatal("Subset of a manifest the store does not cover must error")
	}
}

// TestShardSetMissingDeterministic: Missing reports manifest order with
// duplicate hashes collapsed, independent of insertion history.
func TestShardSetMissingDeterministic(t *testing.T) {
	s := rng.New(45)
	m, set := randomManifest(s, 10)
	partial := NewShardSet(0)
	for i, e := range m.Entries {
		if i%2 == 0 {
			b, _ := set.Get(e.Hash)
			if err := partial.Add(e.Hash, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	miss := partial.Missing(m)
	for i := 1; i < len(miss); i++ {
		if miss[i-1].ID >= miss[i].ID {
			t.Fatal("missing list not in manifest order")
		}
	}
	for _, e := range miss {
		if partial.Has(e.Hash) {
			t.Fatalf("missing list names held shard %q", e.ID)
		}
	}
	if len(miss) != 5 {
		t.Fatalf("missing %d shards, want 5", len(miss))
	}
}

// FuzzShardManifest: decoding arbitrary bytes as a manifest must never panic
// and never allocate beyond the input's own size class; every failure wraps
// ErrCorrupt, and every success re-encodes bitwise.
func FuzzShardManifest(f *testing.F) {
	s := rng.New(46)
	m, _ := randomManifest(s, 5)
	valid := m.Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40
	f.Add(flipped)
	empty := Manifest{}
	f.Add(empty.Encode())
	// count bomb with a valid checksum: an entry count no payload backs must
	// be rejected by the Remaining-based bound, not trusted by make
	bomb := NewWriter()
	bomb.PutUint64(manifestMagic)
	bomb.PutInt(manifestVersion)
	bomb.PutUint64(0)
	bomb.PutInt(1 << 40)
	bomb.PutUint64(uint64(crc32.ChecksumIEEE(bomb.Bytes())))
	f.Add(bomb.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("manifest error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if len(m.Entries) > len(data)/24 {
			t.Fatalf("decoded %d entries from %d bytes (over-allocation)", len(m.Entries), len(data))
		}
		re := m.Encode()
		got, err := DecodeManifest(re)
		if err != nil || !manifestsEqual(m, got) {
			t.Fatalf("accepted manifest does not round trip: %v", err)
		}
	})
}

// TestTensorIntoZeroAllocs pins the restore-path property TensorInto exists
// for: decoding into a preallocated destination performs zero transient
// allocations, no matter how many tensors stream through.
func TestTensorIntoZeroAllocs(t *testing.T) {
	src := tensor.New(32, 16)
	s := rng.New(47)
	for i := range src.Data {
		src.Data[i] = s.NormFloat32()
	}
	w := NewWriter()
	w.PutTensor(src)
	enc := w.Bytes()
	dst := tensor.New(32, 16)
	allocs := testing.AllocsPerRun(200, func() {
		if err := NewReader(enc).TensorInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	// the one permitted allocation is the Reader header itself; the decode —
	// shape staging and float conversion — must not allocate at all (it used
	// to materialize a transient []float32 the size of the tensor)
	if allocs > 1 {
		t.Fatalf("TensorInto allocates %.1f objects per decode, want at most the reader header", allocs)
	}
	if !dst.Equal(src) {
		t.Fatal("TensorInto decode mismatch")
	}
}

// BenchmarkPutFloat32s pins the encode hot path: PutFloat32s must pre-grow
// the buffer once per call instead of relying on append's doubling.
func BenchmarkPutFloat32s(b *testing.B) {
	buf := make([]float32, 64*1024)
	b.SetBytes(int64(4 * len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter()
		w.PutFloat32s(buf)
	}
}

// BenchmarkPutTensor covers the full tensor encode (shape + data).
func BenchmarkPutTensor(b *testing.B) {
	src := tensor.New(256, 256)
	b.SetBytes(int64(4 * len(src.Data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter()
		w.PutTensor(src)
	}
}

// TestDecodeManifestAllocs: a decoded manifest holds its entries and one
// string under every ID, whatever the entry count — two allocations for a
// job's 75 groups, where one string per entry made 76.
func TestDecodeManifestAllocs(t *testing.T) {
	var m Manifest
	for i := range 75 {
		m.Entries = append(m.Entries, ManifestEntry{ID: ParamShardID(i), Hash: uint64(i) * 0x9E3779B97F4A7C15, Len: 100 + i})
	}
	enc := m.Encode()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeManifest(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("DecodeManifest of %d entries allocates %v objects, want at most 2", len(m.Entries), allocs)
	}
	got, err := DecodeManifest(enc)
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
}
