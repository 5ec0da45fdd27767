package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
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
// went out as two deadline-armed writes. Now WriteFrame copies the payload
// into the conn's frame buffer, and a conn sends a frame it built as one
// contiguous write.
func TestFrameWritesArmOneDeadline(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)

	var a countingConn
	if err := WriteFrame(withDeadline(&a, time.Second), MsgGrads, payload); err != nil {
		t.Fatal(err)
	}
	if a.arms != 1 || a.writes != 1 {
		t.Fatalf("WriteFrame: %d deadline arms and %d writes for one frame, want 1 and 1", a.arms, a.writes)
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
// that buffer — gradients are decoded into arena buffers, and the shards of a
// bulk MsgShard frame keep the buffer they were read into, which the
// connection gives up. The frame read after the shards is smaller than theirs,
// so a connection that read it into the same buffer would overwrite them.
func TestReusedFrameBuffersShareNoState(t *testing.T) {
	grads := map[int][][]float32{1: {{1, 2, 3}, {4}}, 2: {{5, 6, 7}, {8}}}
	shards := [][]byte{bytes.Repeat([]byte("first shard "), 20), bytes.Repeat([]byte("second shard "), 20)}
	var m checkpoint.Manifest
	var stream bytes.Buffer
	stream.Write(frameBytes(MsgGrads, gradsPayload(0, grads, []int{1, 2})))
	var w checkpoint.Writer
	w.PutInt(len(shards))
	for i, b := range shards {
		h := checkpoint.HashBytes(b)
		m.Entries = append(m.Entries, checkpoint.ManifestEntry{ID: checkpoint.ESTShardID(i), Hash: h, Len: len(b)})
		encodeShard(&w, h, b)
	}
	stream.Write(frameBytes(MsgShard, w.Bytes()))
	stream.Write(frameBytes(MsgShipDone, nil))
	stream.Write(frameBytes(MsgCkpt, bytes.Repeat([]byte{0xFF}, 64)))

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
		got, ok := set.Get(m.Entries[i].Hash)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("shard %d changed under the read buffer", i)
		}
		if cap(got) != len(got) {
			t.Fatalf("shard %d is a view with %d bytes of room behind it; an append would reach the next shard", i, cap(got)-len(got))
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

// frameTypes parses a recorded byte stream back into its frames' types.
func frameTypes(t *testing.T, stream []byte) []MsgType {
	t.Helper()
	var types []MsgType
	for r := bytes.NewReader(stream); r.Len() > 0; {
		typ, _, err := ReadFrameFrom(r)
		if err != nil {
			t.Fatalf("recorded stream: %v", err)
		}
		types = append(types, typ)
	}
	return types
}

// tapConn records every byte read from and written to a connection.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestShipDialogIsFourFrames: a directory ship of a whole bert job — 75
// groups, of which 28 distinct shards before the first step — is one
// manifest, one need list, one shard frame and the close, where a frame per
// shard made up to 78; the directory ends up holding every shard, each a
// capped view.
func TestShipDialogIsFourFrames(t *testing.T) {
	job, err := core.NewJob(distCfg(4), "bert")
	if err != nil {
		t.Fatal(err)
	}
	m, set := job.BuildShards()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tap := &tapConn{Conn: a}
	shipped := make(chan error, 1)
	go func() {
		_, err := shipShards(withDeadline(tap, 5*time.Second), m, set)
		shipped <- err
	}()
	recv := withDeadline(b, 5*time.Second)
	raw, err := Expect(recv, MsgManifest)
	if err != nil {
		t.Fatal(err)
	}
	offered, err := checkpoint.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	dir := checkpoint.NewShardSet(0)
	if n, err := receiveShards(recv, offered, dir); err != nil || n != set.Len() {
		t.Fatalf("receiveShards asked for %d of %d shards, err %v", n, set.Len(), err)
	}
	if err := <-shipped; err != nil {
		t.Fatal(err)
	}
	sent, got := frameTypes(t, tap.out.Bytes()), frameTypes(t, tap.in.Bytes())
	if !slices.Equal(sent, []MsgType{MsgManifest, MsgShard, MsgShipDone}) || !slices.Equal(got, []MsgType{MsgShardNeed}) {
		t.Fatalf("ship dialog sent frames %v and received %v", sent, got)
	}
	for _, e := range m.Entries {
		if b, ok := dir.Get(e.Hash); !ok || len(b) != e.Len || cap(b) != e.Len {
			t.Fatalf("directory holds shard %q as %d bytes of capacity %d, want %d", e.ID, len(b), cap(b), e.Len)
		}
	}
}

// TestShardFramesSplitOnlyAtTheLimit: a hash list is answered in as few
// frames as the limit allows, in order, a shard larger than the limit
// travelling alone, and what arrives is every shard asked for.
func TestShardFramesSplitOnlyAtTheLimit(t *testing.T) {
	set := checkpoint.NewShardSet(0)
	var hashes []uint64
	for _, n := range []int{10, 20, 30, 200, 5, 6} {
		hashes = append(hashes, set.Put(bytes.Repeat([]byte{byte(n)}, n)))
	}
	// frames of at most 100 payload bytes: a count, then 16 + len per shard
	var out byteConn
	if err := sendShards(withDeadline(&out, time.Second), hashes, set, 100); err != nil {
		t.Fatal(err)
	}
	var counts []int
	for r := bytes.NewReader(out.w.Bytes()); r.Len() > 0; {
		typ, payload, err := ReadFrameFrom(r)
		if err != nil || typ != MsgShard {
			t.Fatalf("frame %d: type %d, err %v", len(counts), typ, err)
		}
		n, _ := checkpoint.NewReader(payload).Int()
		counts = append(counts, n)
	}
	// 8+26+36 = 70 leaves no room for the third (46); the 200-byte shard
	// passes the limit on its own; the two small ones share the last frame
	if want := []int{2, 1, 1, 2}; !slices.Equal(counts, want) {
		t.Fatalf("shards per frame %v, want %v", counts, want)
	}
	in := withDeadline(&byteConn{r: bytes.NewReader(out.w.Bytes())}, time.Second)
	got := checkpoint.NewShardSet(0)
	if err := readShards(in, hashes, got.Add); err != nil || got.Len() != len(hashes) {
		t.Fatalf("read back %d of %d shards, err %v", got.Len(), len(hashes), err)
	}
	if err := sendShards(withDeadline(&out, time.Second), []uint64{12345}, set, 100); !errors.Is(err, errNotHeld) {
		t.Fatalf("asking for a shard the set lacks: %v, want errNotHeld", err)
	}
}

// TestCorruptShardRecordNamesItsAddress: inside a bulk frame, a record whose
// bytes were changed, or whose length runs past the frame, fails the receive
// with checkpoint.ErrCorrupt and the address of that record.
func TestCorruptShardRecordNamesItsAddress(t *testing.T) {
	shards := [][]byte{[]byte("the first shard"), []byte("the second shard")}
	var m checkpoint.Manifest
	var w checkpoint.Writer
	w.PutInt(len(shards))
	for i, b := range shards {
		h := checkpoint.HashBytes(b)
		m.Entries = append(m.Entries, checkpoint.ManifestEntry{ID: checkpoint.ESTShardID(i), Hash: h, Len: len(b)})
		encodeShard(&w, h, b)
	}
	good := w.Bytes()
	second := m.Entries[1].Hash
	flipped := slices.Clone(good)
	flipped[len(flipped)-1] ^= 1
	// the second record's length prefix sits 8 bytes behind its hash
	overrun := slices.Clone(good)
	binary.LittleEndian.PutUint64(overrun[8+16+len(shards[0])+8:], 1<<20)
	for name, payload := range map[string][]byte{"flipped byte": flipped, "overrunning length": overrun} {
		fc := withDeadline(&byteConn{r: bytes.NewReader(frameBytes(MsgShard, payload))}, time.Second)
		_, err := receiveShards(fc, m, checkpoint.NewShardSet(0))
		if !errors.Is(err, checkpoint.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("%016x", second)) {
			t.Errorf("%s: %v, want checkpoint.ErrCorrupt naming shard %016x", name, err, second)
		}
	}
}

// tapListener records what the connections it accepts read.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// TestJoinerFetchIsOneRequestPerPeer: a joiner restoring a whole bert job off
// two peers sends each exactly one MsgShardGet, listing every hash that peer
// serves, and assembles every shard of the manifest.
func TestJoinerFetchIsOneRequestPerPeer(t *testing.T) {
	job, err := core.NewJob(distCfg(4), "bert")
	if err != nil {
		t.Fatal(err)
	}
	m, set := job.BuildShards()
	var addrs []string
	var taps []*tapListener
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		tap := &tapListener{Listener: ln}
		peer := &worker{ln: tap, timeout: 5 * time.Second, helloCh: make(chan helloConn, 1), pubSet: set}
		go peer.serve()
		addrs, taps = append(addrs, ln.Addr().String()), append(taps, tap)
	}
	sources := make([]int, len(m.Entries))
	for i := range sources {
		sources[i] = i % 2
	}
	joiner := &worker{timeout: 5 * time.Second}
	got, err := joiner.fetchShards(m, sources, addrs, func(checkpoint.ManifestEntry) bool { return true }, 1)
	joiner.closeDataPlane()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Entries {
		if b, ok := got.Get(e.Hash); !ok || len(b) != e.Len {
			t.Fatalf("joiner lacks shard %q", e.ID)
		}
	}
	for i, tap := range taps {
		tap.mu.Lock()
		if len(tap.conns) != 1 {
			t.Fatalf("peer %d accepted %d connections, want 1", i, len(tap.conns))
		}
		c := tap.conns[0]
		tap.mu.Unlock()
		c.mu.Lock()
		if types := frameTypes(t, c.in.Bytes()); !slices.Equal(types, []MsgType{MsgShardGet}) {
			t.Errorf("peer %d received frames %v, want one MsgShardGet", i, types)
		}
		c.mu.Unlock()
	}
}
