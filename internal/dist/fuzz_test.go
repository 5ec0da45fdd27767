package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

// byteConn adapts a byte buffer into a net.Conn, so frame codecs can be
// fuzzed without a real socket.
type byteConn struct {
	r io.Reader
	w bytes.Buffer
}

func (c *byteConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)        { return c.w.Write(p) }
func (c *byteConn) Close() error                       { return nil }
func (c *byteConn) LocalAddr() net.Addr                { return nil }
func (c *byteConn) RemoteAddr() net.Addr               { return nil }
func (c *byteConn) SetDeadline(t time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(t time.Time) error { return nil }

func frameBytes(t MsgType, payload []byte) []byte {
	var c byteConn
	c.r = bytes.NewReader(nil)
	if err := WriteFrame(&c, t, payload); err != nil {
		panic(err)
	}
	return c.w.Bytes()
}

// FuzzReadFrame: arbitrary bytes on the wire — truncated frames, bit-flipped
// headers, oversize length prefixes — must never panic ReadFrame; they
// either decode to a frame whose payload matches the declared (bounded)
// length or surface an error.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(MsgHello, []byte("127.0.0.1:9")))
	f.Add(frameBytes(MsgShipDone, nil))
	f.Add(frameBytes(MsgGrads, bytes.Repeat([]byte{0xAB}, 100)))
	f.Add(frameBytes(MsgReduced, []byte("x"))[:3]) // truncated mid-header
	oversize := make([]byte, 5)
	oversize[0] = byte(MsgCkpt)
	binary.LittleEndian.PutUint32(oversize[1:], maxFrame+1)
	f.Add(oversize)

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteConn{r: bytes.NewReader(data)}
		typ, payload, err := ReadFrame(c)
		if err != nil {
			return // rejected cleanly
		}
		if len(payload) > maxFrame {
			t.Fatalf("accepted frame beyond the limit: %d bytes", len(payload))
		}
		// a decoded frame must survive a write/read round trip bitwise
		back := &byteConn{r: bytes.NewReader(frameBytes(typ, payload))}
		typ2, payload2, err := ReadFrame(back)
		if err != nil || typ2 != typ || !bytes.Equal(payload, payload2) {
			t.Fatalf("round trip mismatch: %v %v", typ2, err)
		}
	})
}

// sameFloats reports bitwise equality of two bucket lists.
func sameFloats(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if math.Float32bits(a[i][k]) != math.Float32bits(b[i][k]) {
				return false
			}
		}
	}
	return true
}

// checkDecodeGrads decodes data with the in-place decoder, under the
// expectations of a follower hosting ranks of a world-rank job whose plan has
// bucket lengths lens, and with the allocating oracle: the in-place decoder
// must accept exactly the frames the oracle accepts that also have the
// expected shape, and yield the oracle's step and floats.
func checkDecodeGrads(t *testing.T, data []byte, world int, ranks, lens []int) {
	wantStep, byRank, oracleErr := allocDecodeGrads(data)
	fits := oracleErr == nil && len(byRank) == len(ranks)
	for _, v := range ranks {
		bufs, ok := byRank[v]
		fits = fits && ok && len(bufs) == len(lens)
		for b := 0; fits && b < len(lens); b++ {
			fits = len(bufs[b]) == lens[b]
		}
	}
	table := tableFor(world, lens...)
	defer table.release()
	step, err := decodeGrads(data, ranks, table)
	if (err == nil) != fits {
		t.Fatalf("in-place decoder: err=%v; oracle: err=%v, frame has the expected shape: %v", err, oracleErr, fits)
	}
	if err != nil {
		return
	}
	if step != wantStep {
		t.Fatalf("step %d, oracle %d", step, wantStep)
	}
	for v := range table.bufs {
		if _, hosted := byRank[v]; table.have[v] != hosted || (hosted && !sameFloats(table.bufs[v], byRank[v])) {
			t.Fatalf("rank %d: decoded %v (have=%v), oracle %v", v, table.bufs[v], table.have[v], byRank[v])
		}
	}
}

func checkDecodeBuckets(t *testing.T, data []byte, lens []int) {
	want, oracleErr := allocDecodeBuckets(data)
	fits := oracleErr == nil && len(want) == len(lens)
	for b := 0; fits && b < len(lens); b++ {
		fits = len(want[b]) == lens[b]
	}
	got := make([][]float32, len(lens))
	defer putAll(got)
	err := readBuckets(checkpoint.NewReader(data), lens, got)
	if (err == nil) != fits {
		t.Fatalf("in-place decoder: err=%v; oracle: err=%v, frame has the expected shape: %v", err, oracleErr, fits)
	}
	if err == nil && !sameFloats(got, want) {
		t.Fatalf("decoded %v, oracle %v", got, want)
	}
}

// FuzzDecodeGrads: the gradient-gather payload codecs must reject corrupt
// input with an error, never panic or fabricate contributions — and the
// in-place decoders must agree with the allocating ones they replaced, both
// under the seeds' expectations and under expectations read off whatever
// frame the oracle accepts.
func FuzzDecodeGrads(f *testing.F) {
	f.Add(gradsPayload(3, map[int][][]float32{1: {{1, 2}, {3}}}, []int{1}))
	f.Add(bucketsPayload([][]float32{{1}, {2, 3}}))
	f.Add([]byte{})
	// the right rank and bucket count with one bucket a float short: what
	// used to reach the ring reduce's length panic on the leader
	f.Add(gradsPayload(3, map[int][][]float32{1: {{1}, {3}}}, []int{1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeGrads(t, data, 4, []int{1}, []int{2, 1})
		checkDecodeBuckets(t, data, []int{1, 2})

		const maxWorld = 64
		if _, byRank, err := allocDecodeGrads(data); err == nil && len(byRank) > 0 {
			var ranks, lens []int
			for v := range byRank {
				if v < 0 || v >= maxWorld {
					return
				}
				ranks = append(ranks, v)
			}
			for _, b := range byRank[ranks[0]] {
				lens = append(lens, len(b))
			}
			checkDecodeGrads(t, data, maxWorld, ranks, lens)
		}
		if bufs, err := allocDecodeBuckets(data); err == nil {
			lens := make([]int, len(bufs))
			for b := range bufs {
				lens[b] = len(bufs[b])
			}
			checkDecodeBuckets(t, data, lens)
		}
	})
}

// FuzzDecodeShards: the two shard-dialog payloads off the wire — a hash list
// (MsgShardNeed, MsgShardGet) and a bulk MsgShard frame answering the seed's
// list — are rejected with an error when corrupt, never panic, and never accept
// a strict prefix of what they accept. Their counts are checked against the
// bytes present before anything is allocated by them (boundeddecode).
func FuzzDecodeShards(f *testing.F) {
	set := checkpoint.NewShardSet(0)
	var hashes []uint64
	for _, b := range [][]byte{[]byte("meta"), bytes.Repeat([]byte{7}, 40), nil} {
		hashes = append(hashes, set.Put(b))
	}
	var list, frame checkpoint.Writer
	putHashes(&list, hashes)
	frame.PutInt(len(hashes))
	for _, h := range hashes {
		b, _ := set.Get(h)
		encodeShard(&frame, h, b)
	}
	f.Add(list.Bytes())
	f.Add(frame.Bytes())
	f.Add([]byte{})
	read := func(payload []byte) error {
		c := withDeadline(&byteConn{r: bytes.NewReader(frameBytes(MsgShard, payload))}, time.Second)
		return readShards(c, hashes, checkpoint.NewShardSet(0).Add)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := decodeHashes(data); err == nil {
			if len(got) > len(data)/8 {
				t.Fatalf("%d hashes out of %d bytes", len(got), len(data))
			}
			for cut := range len(data) {
				if _, err := decodeHashes(data[:cut]); err == nil {
					t.Fatalf("hash list: a prefix of %d of %d bytes decoded", cut, len(data))
				}
			}
		}
		if read(data) == nil {
			for cut := range len(data) {
				if read(data[:cut]) == nil {
					t.Fatalf("shard frame: a prefix of %d of %d bytes decoded", cut, len(data))
				}
			}
		}
	})
}

// TestReadFrameRandomCorruption is the deterministic (non -fuzz) smoke over
// the same property: truncations and bit flips of valid frames never panic
// and never desynchronize into an oversized accept.
func TestReadFrameRandomCorruption(t *testing.T) {
	s := rng.New(99)
	base := frameBytes(MsgGrads, gradsPayload(0, map[int][][]float32{0: {{1, 2, 3}}}, []int{0}))
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), base...)
		switch s.Intn(3) {
		case 0:
			data = data[:s.Intn(len(data))]
		case 1:
			data[s.Intn(len(data))] ^= byte(1 + s.Intn(255))
		default:
			data = append(data, byte(s.Intn(256)))
		}
		c := &byteConn{r: bytes.NewReader(data)}
		typ, payload, err := ReadFrame(c)
		if err != nil {
			continue
		}
		if len(payload) > maxFrame {
			t.Fatalf("iteration %d: accepted oversized payload", i)
		}
		_, _, _ = typ, payload, err
		table := tableFor(1, 3)
		decodeGrads(payload, []int{0}, table)
		table.release()
	}
}

// TestExpectSurfacesReject: Expect on a frame-type mismatch (e.g. a MsgReject
// where a reconfigure was expected) errors rather than misinterpreting payload.
func TestExpectSurfacesReject(t *testing.T) {
	c := &byteConn{r: bytes.NewReader(frameBytes(MsgReject, []byte("stale epoch 1 (current 2)")))}
	if _, err := Expect(c, MsgReconfigure); err == nil {
		t.Fatal("Expect must reject a mismatched frame type")
	}
}
