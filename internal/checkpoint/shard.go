// Sharded checkpoint layer: content-addressed shards plus a manifest.
//
// A checkpoint is no longer one opaque blob. The job's state is cut into
// named groups (parameters, optimizer moments, EST contexts, a small
// metadata group), each encoded independently into a shard addressed by the
// FNV-1a hash of its bytes. A manifest lists the groups in canonical order
// with their content hashes; the shard bytes travel separately and can be
// deduplicated, shipped incrementally (only hashes the receiver does not
// hold), fetched from multiple peers in parallel, and reassembled in any
// order — the manifest, not arrival order, defines the decoded layout, so
// transport scheduling cannot affect numerics.
package checkpoint

import (
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
)

// Container/manifest magics guard against foreign byte streams; the version
// guards against format drift.
const (
	manifestMagic   = 0xEA57_5CA1_E51A_0001
	containerMagic  = 0xEA57_5CA1_E51A_0002
	manifestVersion = 1

	// maxShardID bounds a group identifier; maxShards bounds the entry count
	// of a decoded manifest. Both exist so corrupt counts are rejected before
	// allocation, like maxFrame for tensors.
	maxShardID = 256
	maxShards  = 1 << 20
)

// HashBytes content-addresses a shard: FNV-1a over its encoded bytes. The
// same function the tensor package uses for state hashing, so a shard's
// address is stable across processes and architectures.
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// ManifestEntry names one state group: its identifier, the content hash of
// its encoded bytes, and their length.
type ManifestEntry struct {
	ID   string
	Hash uint64
	Len  int
}

// Manifest is the ordered table of contents of a sharded checkpoint.
// Progress carries the global step the snapshot was taken at, so a recovery
// path can pick the freshest of several manifests without decoding shards.
type Manifest struct {
	Progress int64
	Entries  []ManifestEntry
}

// TotalLen returns the summed encoded length of all groups.
func (m Manifest) TotalLen() int {
	n := 0
	for _, e := range m.Entries {
		n += e.Len
	}
	return n
}

// Diff returns the entries of m whose content is absent from prev — the
// incremental delta. Content-addressed: a group that changed ID but kept
// bytes (or vice versa) is judged by hash, which is what a receiver holding
// prev's shards actually needs shipped.
func (m Manifest) Diff(prev Manifest) []ManifestEntry {
	have := make(map[uint64]bool, len(prev.Entries))
	for _, e := range prev.Entries {
		have[e.Hash] = true
	}
	var out []ManifestEntry
	for _, e := range m.Entries {
		if !have[e.Hash] {
			out = append(out, e)
		}
	}
	return out
}

// Encode serializes the manifest with magic, version, and CRC trailer, into
// a buffer of exactly its size.
func (m Manifest) Encode() []byte {
	size := 5 * 8 // magic, version, progress, entry count, CRC trailer
	for _, e := range m.Entries {
		size += 3*8 + len(e.ID)
	}
	var w Writer
	w.Grow(size)
	w.PutUint64(manifestMagic)
	w.PutInt(manifestVersion)
	w.PutUint64(uint64(m.Progress))
	w.PutInt(len(m.Entries))
	for _, e := range m.Entries {
		w.PutString(e.ID)
		w.PutUint64(e.Hash)
		w.PutInt(e.Len)
	}
	w.PutUint64(uint64(crc32.ChecksumIEEE(w.Bytes())))
	return w.Bytes()
}

// checked verifies the CRC trailer of an encoded manifest or container and
// returns the bytes in front of it, for the caller's Reader, which then stays
// on its stack.
func checked(data []byte, what string) ([]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %s too short", ErrCorrupt, what)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	if sum, _ := NewReader(trailer).Uint64(); uint32(sum) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: %s checksum mismatch", ErrCorrupt, what)
	}
	return payload, nil
}

// DecodeManifest parses a manifest encoded by Encode. Every malformed input
// — truncation, bad magic or version, corrupt counts, oversized IDs or
// lengths, trailing garbage — yields an error wrapping ErrCorrupt; no input
// panics or allocates beyond its own length.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	payload, err := checked(data, "manifest")
	r := NewReader(payload)
	if err != nil {
		return m, err
	}
	if magic, err := r.Uint64(); err != nil || magic != manifestMagic {
		return m, fmt.Errorf("%w: not a shard manifest", ErrCorrupt)
	}
	if v, err := r.Int(); err != nil || v != manifestVersion {
		return m, fmt.Errorf("%w: unsupported manifest version", ErrCorrupt)
	}
	prog, _ := r.Uint64()
	m.Progress = int64(prog)
	n, err := r.Int()
	// each entry is at least 24 bytes (ID length prefix + hash + len), so a
	// count the payload cannot hold is rejected before allocation
	if err != nil || n < 0 || n > maxShards || n > r.Remaining()/24 {
		return m, fmt.Errorf("%w: manifest entry count %d", ErrCorrupt, n)
	}
	m.Entries = make([]ManifestEntry, n)
	// one string holds every ID: of a well-formed manifest, the bytes left
	// less 24 per entry are exactly the ID bytes
	var all strings.Builder
	all.Grow(r.Remaining() - 24*n)
	for i := range m.Entries {
		e := &m.Entries[i]
		id, _ := r.Bytes()
		e.Hash, _ = r.Uint64()
		e.Len, _ = r.Int()
		if err := r.Err(); err != nil {
			return m, err
		}
		if len(id) == 0 || len(id) > maxShardID {
			return m, fmt.Errorf("%w: manifest entry id length %d", ErrCorrupt, len(id))
		}
		if e.Len < 0 || e.Len > maxFrame {
			return m, fmt.Errorf("%w: manifest entry length %d", ErrCorrupt, e.Len)
		}
		all.Write(id)
		e.ID = all.String()[all.Len()-len(id):]
	}
	if r.Remaining() != 0 {
		return m, fmt.Errorf("%w: %d trailing manifest bytes", ErrCorrupt, r.Remaining())
	}
	return m, nil
}

// ShardSet is a content-addressed store of shard bytes, keyed by hash.
type ShardSet struct {
	byHash map[uint64][]byte
}

// NewShardSet returns an empty store with room for n shards.
func NewShardSet(n int) *ShardSet {
	return &ShardSet{byHash: make(map[uint64][]byte, n)}
}

// Add stores shard bytes under hash after verifying the content address —
// a shard whose bytes do not hash to its claimed address is corrupt,
// whichever peer it came from. Idempotent for identical content. Every shard
// off a socket or out of a container comes in here; the store keeps data
// itself, not a copy. Stored shards may be capped views of one buffer — a
// frame read off a socket, the buffer BuildShards encodes into — and that
// buffer lives as long as any shard of it is held.
func (s *ShardSet) Add(hash uint64, data []byte) error {
	if HashBytes(data) != hash {
		return fmt.Errorf("%w: shard content does not match address %016x", ErrCorrupt, hash)
	}
	s.byHash[hash] = data
	return nil
}

// Put stores shard bytes this process just encoded and returns their address:
// the one hash of a locally built shard. Bytes from anywhere else go through
// Add, which verifies the address they claim.
func (s *ShardSet) Put(data []byte) uint64 {
	h := HashBytes(data)
	s.byHash[h] = data
	return h
}

// Subset returns a store of exactly the shards m references, sharing their
// bytes with s and re-hashing nothing: s verified or addressed them coming in.
func (s *ShardSet) Subset(m Manifest) (*ShardSet, error) {
	out := NewShardSet(len(m.Entries))
	for _, e := range m.Entries {
		b, ok := s.byHash[e.Hash]
		if !ok {
			return nil, fmt.Errorf("checkpoint: store lacks shard %q", e.ID)
		}
		out.byHash[e.Hash] = b
	}
	return out, nil
}

// Get returns the shard bytes stored under hash.
func (s *ShardSet) Get(hash uint64) ([]byte, bool) {
	b, ok := s.byHash[hash]
	return b, ok
}

// Has reports whether the store holds content for hash.
func (s *ShardSet) Has(hash uint64) bool {
	_, ok := s.byHash[hash]
	return ok
}

// Len returns the number of distinct shards held.
func (s *ShardSet) Len() int { return len(s.byHash) }

// Missing returns the manifest entries whose content the store lacks, in
// manifest order with duplicate hashes reported once — the fetch list for a
// joining worker. Ordered iteration over the manifest, never over the map,
// keeps the result deterministic.
func (s *ShardSet) Missing(m Manifest) []ManifestEntry {
	seen := make(map[uint64]bool, len(m.Entries))
	out := make([]ManifestEntry, 0, len(m.Entries))
	for _, e := range m.Entries {
		if seen[e.Hash] || s.Has(e.Hash) {
			continue
		}
		seen[e.Hash] = true
		out = append(out, e)
	}
	return out
}

// EncodeContainer packs a manifest and the shards it references into one
// self-contained byte stream — the at-rest and bootstrap-transport form of a
// sharded checkpoint. Shards appear once per distinct hash, in first
// reference order, so groups with identical content (for example zeroed
// momentum tensors of equal shape) are stored once.
func EncodeContainer(m Manifest, s *ShardSet) ([]byte, error) {
	// what an empty store lacks: every distinct shard, in first-reference order
	distinct := NewShardSet(0).Missing(m)
	mb := m.Encode()
	size := 4*8 + len(mb) // magic, manifest length prefix, shard count, CRC trailer
	for _, e := range distinct {
		b, ok := s.Get(e.Hash)
		if !ok {
			return nil, fmt.Errorf("checkpoint: container missing shard %016x", e.Hash)
		}
		size += 2*8 + len(b)
	}
	var w Writer
	w.Grow(size)
	w.PutUint64(containerMagic)
	w.PutBytes(mb)
	w.PutInt(len(distinct))
	for _, e := range distinct {
		b, _ := s.Get(e.Hash)
		w.PutUint64(e.Hash)
		w.PutBytes(b)
	}
	w.PutUint64(uint64(crc32.ChecksumIEEE(w.Bytes())))
	return w.Bytes(), nil
}

// DecodeContainer unpacks a container, verifying the outer CRC, the
// manifest, and every shard's content address, and checking that the store
// covers the manifest. Errors wrap ErrCorrupt.
func DecodeContainer(data []byte) (Manifest, *ShardSet, error) {
	var m Manifest
	payload, err := checked(data, "container")
	r := NewReader(payload)
	if err != nil {
		return m, nil, err
	}
	if magic, err := r.Uint64(); err != nil || magic != containerMagic {
		return m, nil, fmt.Errorf("%w: not a shard container", ErrCorrupt)
	}
	mb, err := r.Bytes()
	if err != nil {
		return m, nil, err
	}
	if m, err = DecodeManifest(mb); err != nil {
		return m, nil, err
	}
	n, err := r.Int()
	// hash + length prefix = 16 bytes minimum per shard
	if err != nil || n < 0 || n > maxShards || n > r.Remaining()/16 {
		return m, nil, fmt.Errorf("%w: container shard count %d", ErrCorrupt, n)
	}
	set := NewShardSet(n)
	for i := 0; i < n; i++ {
		h, _ := r.Uint64()
		b, err := r.Bytes()
		if err != nil {
			return m, nil, err
		}
		// the store outlives data, the caller's: a shard's one copy, exact size
		if err := set.Add(h, slices.Clone(b)); err != nil {
			return m, nil, err
		}
	}
	if r.Remaining() != 0 {
		return m, nil, fmt.Errorf("%w: %d trailing container bytes", ErrCorrupt, r.Remaining())
	}
	for _, e := range m.Entries {
		b, ok := set.Get(e.Hash)
		if !ok {
			return m, nil, fmt.Errorf("%w: container lacks shard %q", ErrCorrupt, e.ID)
		}
		if len(b) != e.Len {
			return m, nil, fmt.Errorf("%w: shard %q is %d bytes, manifest says %d", ErrCorrupt, e.ID, len(b), e.Len)
		}
	}
	return m, set, nil
}
