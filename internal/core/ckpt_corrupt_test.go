package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/device"
)

// seekBucketCount walks a meta shard to the byte offset of its bucket-count
// field, mirroring the field sequence RestoreJobShards decodes.
func seekBucketCount(t *testing.T, meta []byte) int {
	t.Helper()
	r := checkpoint.NewReader(meta)
	chk := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("reading %s: %v", what, err)
		}
	}
	var err error
	_, err = r.Uint64()
	chk("magic", err)
	_, err = r.Int()
	chk("version", err)
	_, err = r.String()
	chk("name", err)
	_, err = r.Uint64()
	chk("seed", err)
	for _, f := range []string{"numESTs", "batch", "level"} {
		_, err = r.Int()
		chk(f, err)
	}
	_, err = r.Bool()
	chk("d2", err)
	for _, f := range []string{"d2Block", "epoch", "step", "globalStep",
		"paramGroups", "momentGroups", "estGroups", "optSteps"} {
		_, err = r.Int()
		chk(f, err)
	}
	_, err = r.Float64()
	chk("lr", err)
	for _, f := range []string{"schedEpoch", "loaderEpoch"} {
		_, err = r.Int()
		chk(f, err)
	}
	_, err = r.Ints()
	chk("nextStep", err)
	rows, err := r.Int()
	chk("streamRows", err)
	for i := 0; i < rows; i++ {
		cols, err := r.Int()
		chk("streamCols", err)
		for c := 0; c < cols; c++ {
			_, err = r.RNGState()
			chk("rngState", err)
		}
	}
	_, err = r.Bool()
	chk("rebuilt", err)
	return len(meta) - r.Remaining()
}

// TestRestoreRejectsBucketCountBomb: a checkpoint whose bucket count claims
// far more buckets than the remaining bytes could possibly encode must be
// rejected by the bound check — not trusted by make, which would attempt a
// multi-terabyte allocation before the per-bucket reads ever failed.
func TestRestoreRejectsBucketCountBomb(t *testing.T) {
	cfg := testCfg(D1, false, 2)
	j := runSteps(t, cfg, "vgg19", EvenPlacement(2, device.V100), 2)
	m, set := j.BuildShards()

	var metaEntry *checkpoint.ManifestEntry
	for i := range m.Entries {
		if m.Entries[i].ID == checkpoint.MetaShardID {
			metaEntry = &m.Entries[i]
		}
	}
	if metaEntry == nil {
		t.Fatal("manifest lacks meta group")
	}
	meta, ok := set.Get(metaEntry.Hash)
	if !ok {
		t.Fatal("meta shard missing from set")
	}

	// splice in an absurd count and drop the real bucket payload, so the
	// declared count has nothing behind it
	off := seekBucketCount(t, meta)
	corrupted := append(append([]byte(nil), meta[:off]...), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(corrupted[off:], 1<<40)

	mh := checkpoint.HashBytes(corrupted)
	if err := set.Add(mh, corrupted); err != nil {
		t.Fatal(err)
	}
	metaEntry.Hash, metaEntry.Len = mh, len(corrupted)

	if _, err := RestoreJobShards(cfg, m, set); err == nil || !strings.Contains(err.Error(), "bucket plan corrupt") {
		t.Fatalf("bucket count bomb not rejected: %v", err)
	}
}
