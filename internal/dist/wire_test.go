package dist

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/rng"
)

// TestLeaderRejectsWrongBucketLength: a follower's MsgGrads frame with the
// right virtual rank and the right bucket count, but one bucket a float
// short, must come back from the leader's step loop as a typed corruption
// error. Before the gather decoded into buffers of the plan's bucket lengths
// the frame passed every check and panicked the ring reduce on the leader's
// goroutine.
func TestLeaderRejectsWrongBucketLength(t *testing.T) {
	cfg := distCfg(2)
	p := core.EvenPlacement(2, device.V100, device.V100)
	job, err := core.NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Attach(p); err != nil {
		t.Fatal(err)
	}
	ddp := job.DDP()
	bufs := make([][]float32, ddp.NumBuckets())
	for b := range bufs {
		bufs[b] = make([]float32, ddp.BucketLen(b))
	}
	last := len(bufs) - 1
	bufs[last] = bufs[last][:len(bufs[last])-1]

	leaderEnd, followerEnd := net.Pipe()
	defer leaderEnd.Close()
	defer followerEnd.Close()
	deadline := time.Now().Add(10 * time.Second)
	leaderEnd.SetDeadline(deadline)
	followerEnd.SetDeadline(deadline)
	sent := make(chan error, 1)
	go func() {
		sent <- WriteFrame(followerEnd, MsgGrads, gradsPayload(0, map[int][][]float32{1: bufs}, []int{1}))
	}()

	followers := []follower{{conn: withDeadline(leaderEnd, 10*time.Second), worker: 1, ranks: p.Assignment[1]}}
	ctrl := withDeadline(&byteConn{r: bytes.NewReader(nil)}, time.Second)
	err = leaderSteps(job, nil, nil, p, followers, ctrl, nil, 1, -1, cfg.NumESTs)
	if !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("short bucket: leader returned %v, want an error wrapping checkpoint.ErrCorrupt", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("follower write: %v", err)
	}
}

// countingConn counts the writes and write-deadline arms that reach the
// connection under a conn.
type countingConn struct {
	byteConn
	writes, arms int
}

func (c *countingConn) Write(p []byte) (int, error)        { c.writes++; return c.byteConn.Write(p) }
func (c *countingConn) SetWriteDeadline(t time.Time) error { c.arms++; return nil }

// TestFrameWritesArmOneDeadline: a frame is one deadline arm, and on the
// runtime's own planes one write. WriteFrame used to hand net.Buffers a
// deadline wrapper, which hides the TCP connection's writev: header and payload
// went out as two deadline-armed writes. Now it arms once and gives the
// buffers to the connection inside (one writev on TCP; a stub like this one
// has no writev, so net.Buffers falls back to a write per buffer there), and
// a conn sends a frame it built as one contiguous write.
func TestFrameWritesArmOneDeadline(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)

	var a countingConn
	if err := WriteFrame(withDeadline(&a, time.Second), MsgGrads, payload); err != nil {
		t.Fatal(err)
	}
	if a.arms != 1 {
		t.Fatalf("WriteFrame armed %d write deadlines for one frame, want 1", a.arms)
	}

	var b countingConn
	fc := withDeadline(&b, time.Second)
	fc.begin().PutBytes(payload)
	if err := fc.send(MsgGrads); err != nil {
		t.Fatal(err)
	}
	if b.arms != 1 || b.writes != 1 {
		t.Fatalf("conn.send: %d deadline arms and %d writes for one frame, want 1 and 1", b.arms, b.writes)
	}
	typ, got, err := ReadFrame(&byteConn{r: bytes.NewReader(b.w.Bytes())})
	if err != nil || typ != MsgGrads || len(got) != 8+len(payload) {
		t.Fatalf("the frame read back as type %d, %d payload bytes, err %v", typ, len(got), err)
	}
	if !bytes.Equal(a.w.Bytes()[frameHeader:], payload) {
		t.Fatal("WriteFrame put something other than header and payload on the wire")
	}
}

// TestReusedFrameBuffersShareNoState: what the data plane decodes out of a
// connection's read buffer must not change when the next frames overwrite
// that buffer — gradients are decoded into arena buffers, a shard is copied
// once into the store.
func TestReusedFrameBuffersShareNoState(t *testing.T) {
	grads := map[int][][]float32{1: {{1, 2, 3}, {4}}, 2: {{5, 6, 7}, {8}}}
	shards := [][]byte{bytes.Repeat([]byte("first shard "), 20), bytes.Repeat([]byte("second shard "), 20)}
	var m checkpoint.Manifest
	var stream bytes.Buffer
	stream.Write(frameBytes(MsgGrads, gradsPayload(0, grads, []int{1, 2})))
	for i, b := range shards {
		h := checkpoint.HashBytes(b)
		m.Entries = append(m.Entries, checkpoint.ManifestEntry{ID: checkpoint.ESTShardID(i), Hash: h, Len: len(b)})
		var w checkpoint.Writer
		encodeShard(&w, h, b)
		stream.Write(frameBytes(MsgShard, w.Bytes()))
	}
	stream.Write(frameBytes(MsgShipDone, nil))
	stream.Write(frameBytes(MsgCkpt, bytes.Repeat([]byte{0xFF}, 1024)))

	fc := withDeadline(&byteConn{r: &stream}, time.Second)
	payload, err := Expect(fc, MsgGrads)
	if err != nil {
		t.Fatal(err)
	}
	table := tableFor(3, 3, 1)
	defer table.release()
	if _, err := decodeGrads(payload, []int{1, 2}, table); err != nil {
		t.Fatal(err)
	}
	set := checkpoint.NewShardSet(0)
	if n, err := receiveShards(fc, m, set); err != nil || n != len(shards) {
		t.Fatalf("receiveShards asked for %d shards, err %v", n, err)
	}
	// one more frame, then scribble over whatever the read buffer still holds
	if _, err := Expect(fc, MsgCkpt); err != nil {
		t.Fatal(err)
	}
	buf := fc.rbuf[:cap(fc.rbuf)]
	for i := range buf {
		buf[i] = 0xAA
	}

	for v, want := range grads {
		if !sameFloats(table.bufs[v], want) {
			t.Fatalf("rank %d gradients changed under the read buffer: %v, want %v", v, table.bufs[v], want)
		}
	}
	for i, want := range shards {
		if got, ok := set.Get(m.Entries[i].Hash); !ok || !bytes.Equal(got, want) {
			t.Fatalf("shard %d changed under the read buffer", i)
		}
	}
}

// TestWireEncodingsUnchanged pins the frames the data plane now builds in
// place to the bytes the allocating encoders produced (FNV-64a of each,
// recorded from them), and the gradient frame to the oracle's layout.
func TestWireEncodingsUnchanged(t *testing.T) {
	m := checkpoint.Manifest{Progress: 9, Entries: []checkpoint.ManifestEntry{{ID: "meta", Hash: 11, Len: 3}, {ID: "param/0000", Hash: 12, Len: 40}, {ID: "est/0001", Hash: 13, Len: 7}}}
	rc := reconfig{Epoch: 5, Slot: 1, Steps: 4, Kind: kindMigrate, LeaderAddr: "127.0.0.1:7000",
		Placement: core.EvenPlacement(4, device.V100, device.P100), Manifest: m,
		PeerAddrs: []string{"127.0.0.1:7000", "127.0.0.1:7001"}, Sources: []int{0, 1, 1}, WarmAddrs: []string{"127.0.0.1:7000", "127.0.0.1:7001"}}
	encoded := func(encode func(*checkpoint.Writer)) uint64 {
		var w checkpoint.Writer
		encode(&w)
		return checkpoint.HashBytes(w.Bytes())
	}
	if h := encoded(func(w *checkpoint.Writer) { encodeReconfig(w, rc) }); h != 0x3f2f023af9fe8aea {
		t.Errorf("migrate reconfigure encodes to %#x", h)
	}
	rc.Kind, rc.Container = kindContainer, []byte("not really a container")
	if h := encoded(func(w *checkpoint.Writer) { encodeReconfig(w, rc) }); h != 0x23b5c1c4f4085d42 {
		t.Errorf("container reconfigure encodes to %#x", h)
	}
	if h := encoded(func(w *checkpoint.Writer) { encodeShard(w, 77, []byte("shard bytes")) }); h != 0xda4df578d8079622 {
		t.Errorf("shard encodes to %#x", h)
	}
	if h := checkpoint.HashBytes(m.Encode()); h != 0x156f9ca271d4c0e8 {
		t.Errorf("manifest encodes to %#x", h)
	}

	cfg := distCfg(2)
	job, err := core.NewJob(cfg, "neumf")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Attach(core.EvenPlacement(2, device.V100)); err != nil {
		t.Fatal(err)
	}
	if err := job.RunLocalPhase(0); err != nil {
		t.Fatal(err)
	}
	flat := map[int][][]float32{}
	for _, r := range []int{0, 1} {
		for b := 0; b < job.DDP().NumBuckets(); b++ {
			flat[r] = append(flat[r], job.DDP().FlattenBucket(b, job.ESTGradientSet(r)))
		}
	}
	var w checkpoint.Writer
	encodeGrads(&w, 3, job, []int{0, 1})
	if !bytes.Equal(w.Bytes(), gradsPayload(3, flat, []int{0, 1})) {
		t.Error("the gradient frame built in place differs from the oracle's layout")
	}
}

// TestReconfigCorruptionNeverPanics: every strict prefix of a reconfigure
// payload is an error, and bit flips decode or error but never panic — the
// decoder reads runs of fields under the reader's sticky error, so nothing may
// act on a field a failed read left zero.
func TestReconfigCorruptionNeverPanics(t *testing.T) {
	m := checkpoint.Manifest{Progress: 2, Entries: []checkpoint.ManifestEntry{{ID: "meta", Hash: 1, Len: 3}, {ID: "est/0000", Hash: 2, Len: 5}}}
	rc := reconfig{Epoch: 3, Slot: 1, Steps: 2, Kind: kindMigrate, LeaderAddr: "127.0.0.1:1",
		Placement: core.EvenPlacement(2, device.V100, device.V100), Manifest: m,
		PeerAddrs: []string{"127.0.0.1:1", "127.0.0.1:2"}, Sources: []int{0, 1}, WarmAddrs: []string{"127.0.0.1:1"}}
	s := rng.New(5)
	for _, kind := range []int{kindMigrate, kindContainer} {
		rc.Kind, rc.Container = kind, []byte("container bytes")
		var w checkpoint.Writer
		encodeReconfig(&w, rc)
		good := w.Bytes()
		if got, err := decodeReconfig(good); err != nil || got.Slot != rc.Slot || len(got.Placement.Assignment) != 2 {
			t.Fatalf("kind %d: round trip: %+v, %v", kind, got, err)
		}
		for cut := 0; cut < len(good); cut++ {
			if _, err := decodeReconfig(good[:cut]); err == nil {
				t.Fatalf("kind %d: prefix of %d of %d bytes decoded", kind, cut, len(good))
			}
		}
		for i := 0; i < 2000; i++ {
			bad := append([]byte(nil), good...)
			bad[s.Intn(len(bad))] ^= byte(1 + s.Intn(255))
			decodeReconfig(bad)
		}
	}
}
