package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

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
	f.Add(frameBytes(MsgDone, nil))
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

// FuzzDecodeGrads: the gradient-gather payload codec must reject corrupt
// input with an error, never panic or fabricate contributions.
func FuzzDecodeGrads(f *testing.F) {
	f.Add(encodeGrads(3, map[int][][]float32{1: {{1, 2}, {3}}}, []int{1}))
	f.Add(encodeBuckets([][]float32{{1}, {2, 3}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, byRank, err := decodeGrads(data); err == nil {
			for v, bufs := range byRank {
				_ = v
				for _, b := range bufs {
					_ = b
				}
			}
		}
		if bufs, err := decodeBuckets(data); err == nil {
			for _, b := range bufs {
				_ = b
			}
		}
	})
}

// TestReadFrameRandomCorruption is the deterministic (non -fuzz) smoke over
// the same property: truncations and bit flips of valid frames never panic
// and never desynchronize into an oversized accept.
func TestReadFrameRandomCorruption(t *testing.T) {
	s := rng.New(99)
	base := frameBytes(MsgGrads, encodeGrads(0, map[int][][]float32{0: {{1, 2, 3}}}, []int{0}))
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
		decodeGrads(payload)
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
