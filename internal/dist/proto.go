// Package dist is the networked runtime of EasyScale: the ElasticDDP
// communication layer as an actual distributed component. Workers are
// separate processes in the architectural sense — they share nothing and
// exchange gradients and control over real TCP sockets — and are run as
// goroutines against loopback listeners here.
//
// The numerics contract is the whole point: the distributed gradient
// synchronization must be bitwise identical to the in-process engine's
// virtual-ring reduction, so a job can move freely between the two runtimes
// (and between worker counts) without perturbing training. The leader
// gathers every EST's bucket buffers, averages them with the in-process
// step's own reduce (comm.ReduceAverage over virtual ranks), and broadcasts
// the averaged buckets, which every worker applies through the in-process
// step's own finish (core.Job.FinishStepReduced); tests assert bitwise
// equality against the single-process engine.
//
// Elasticity works as in the paper: at a scale event the phase leader's
// on-demand checkpoint — a manifest of content-addressed shards — lands in the
// coordinator's directory, and the next phase's workers take their state from
// it under a new placement, either by restarting from the container or, with
// live migration, by moving only the shards that change hands.
package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
)

// MsgType tags a protocol frame.
type MsgType uint8

// Protocol frames.
const (
	// MsgHello opens a connection: to the coordinator it carries the worker's
	// rendezvous epoch and listen address, to a phase leader the dialing
	// follower's slot.
	MsgHello MsgType = iota + 1
	// MsgGrads carries one worker's flattened bucket buffers, tagged by
	// virtual rank, to the leader.
	MsgGrads
	// MsgReduced carries the averaged bucket buffers from the leader.
	MsgReduced
	// MsgCkpt carries a follower's hosted EST contexts to the leader for the
	// end-of-phase checkpoint assembly: a count, then the contexts.
	MsgCkpt
	// Reserved (was MsgDone): a retired number stays taken, so the frames
	// after it keep their wire values.
	_
	// MsgReject refuses a rendezvous hello (payload: reason string); the
	// coordinator sends it to a worker whose epoch is stale.
	MsgReject

	// Control frames (driver ↔ worker, see driver.go).

	// MsgReconfigure tells a worker its slot, steps, and placement for the
	// next phase, plus how to obtain state: fresh, from a container, or by
	// migrating shards off its peers.
	MsgReconfigure
	// MsgReady reports a worker reconfigured, attached, and ready to
	// train. There is deliberately no "go" frame behind it: a ready worker
	// enters its phase immediately, halving the control round trips on the
	// reconfiguration path.
	MsgReady
	// MsgDepart tells a worker its slot no longer exists; it serves
	// shards until this frame, then exits cleanly.
	MsgDepart
	// MsgPhaseDone reports a worker finished its phase (the leader
	// sends it after the directory ship completes).
	MsgPhaseDone

	// Shard-directory and multi-peer fetch frames.

	// MsgManifest offers a shard manifest (leader → coordinator directory).
	MsgManifest
	// MsgShardNeed lists the content hashes the receiver lacks.
	MsgShardNeed
	// MsgShard carries content-addressed shards: a count, then hash and bytes
	// of each. One frame answers a need list or a MsgShardGet, see sendShards.
	MsgShard
	// MsgShipDone closes an incremental shard-ship dialog.
	MsgShipDone
	// MsgShardGet requests shards by content hash from a peer: every hash
	// that peer serves in one list, MsgShardNeed's layout.
	MsgShardGet

	// Inference-serving frames (client ↔ serve server, see predict.go).

	// MsgPredict carries one inference request: id, model name, deadline
	// budget, and the input feature row.
	MsgPredict
	// MsgPredictReply carries the matching output row (or an error).
	MsgPredictReply
)

// maxFrame bounds a frame payload (checkpoints of the scaled-down models are
// well under this).
const maxFrame = 256 << 20

// frameHeader is a frame's header: a type byte, a little-endian uint32 length.
const frameHeader = 5

func putFrameHeader(hdr []byte, t MsgType, payloadLen int) {
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:frameHeader], uint32(payloadLen))
}

// WriteFrame sends a tagged, length-prefixed frame. Payloads beyond maxFrame
// are rejected before any bytes hit the wire: a uint32 length header cannot
// represent them, so writing one would silently truncate the length and
// desynchronize the stream for every subsequent frame.
//
// Header and payload go out as one net.Buffers, which a TCP connection sends
// with a single writev: on the serving path a frame is a whole request, so two
// writes would double the per-request syscall bill (and can emit a 5-byte TCP
// segment ahead of each payload). A *conn would hide that writev, so its
// (control-sized) payload is copied into its frame buffer and leaves through
// conn.send: one deadline arm, one write, no allocation.
func WriteFrame(c net.Conn, t MsgType, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: refusing to write frame of %d bytes (limit %d)", len(payload), maxFrame)
	}
	if dc, ok := c.(*conn); ok {
		dc.begin().PutRaw(payload)
		return dc.send(t)
	}
	var hdr [frameHeader]byte
	putFrameHeader(hdr[:], t, len(payload))
	bufs := net.Buffers{hdr[:], payload}
	if len(payload) == 0 {
		bufs = bufs[:1] // a write of nothing can block on an unbuffered pipe
	}
	if _, err := bufs.WriteTo(c); err != nil {
		return fmt.Errorf("dist: write frame: %w", err)
	}
	return nil
}

// ReadFrame receives one frame from a connection. A *conn's payload is read
// into the connection's read buffer and valid until its next frame is read;
// any other connection's is the caller's to keep.
func ReadFrame(c net.Conn) (MsgType, []byte, error) {
	dc, ok := c.(*conn)
	if !ok {
		return ReadFrameFrom(c)
	}
	t, payload, err := readFrameInto(dc, dc.hdr[:], dc.rbuf)
	if err == nil {
		dc.rbuf = payload
	}
	return t, payload, err
}

// ReadFrameFrom receives one frame from any reader. Hot consumers (the
// serving request loop) wrap the connection in a bufio.Reader and call this
// so the 5-byte header read does not cost its own syscall.
func ReadFrameFrom(c io.Reader) (MsgType, []byte, error) {
	return readFrameInto(c, make([]byte, frameHeader), nil)
}

// readFrameInto receives one frame, its header into hdr, using buf's capacity
// for the payload: a frame that fits is read in place, allocates nothing and
// aliases buf. One that does not gets a new buffer, grown in bounded chunks as
// bytes actually arrive, so a corrupt or hostile length header cannot force a
// huge allocation for data the peer never sends.
func readFrameInto(c io.Reader, hdr, buf []byte) (MsgType, []byte, error) {
	if _, err := io.ReadFull(c, hdr); err != nil {
		return 0, nil, fmt.Errorf("dist: read header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxFrame {
		return 0, nil, fmt.Errorf("dist: frame of %d bytes exceeds limit", n)
	}
	const chunk = 1 << 20
	payload := buf[:0]
	if n > cap(payload) {
		payload = nil
	}
	for len(payload) < n {
		take := min(n-len(payload), chunk)
		start := len(payload)
		payload = slices.Grow(payload, take)[:start+take]
		if _, err := io.ReadFull(c, payload[start:]); err != nil {
			return 0, nil, fmt.Errorf("dist: read payload: %w", err)
		}
	}
	return MsgType(hdr[0]), payload, nil
}

// Expect reads a frame (see ReadFrame) and verifies its type.
func Expect(c net.Conn, want MsgType) ([]byte, error) {
	t, payload, err := ReadFrame(c)
	if err != nil {
		return nil, err
	}
	if t != want {
		return nil, fmt.Errorf("dist: expected frame %d, got %d", want, t)
	}
	return payload, nil
}
