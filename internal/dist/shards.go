package dist

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/device"
)

// Wire codecs for the sharded-checkpoint protocol: placement and
// reconfiguration frames, manifest offers, need lists, and shard transfers.
// The decoders read runs of fields and check the checkpoint reader's sticky
// error once per run; counts are bounded by the bytes present before anything
// is allocated by them.

// reconfigure kinds: how a worker obtains its phase-entry state.
const (
	// kindFresh builds a new job (first phase of a run).
	kindFresh = iota
	// kindContainer restores from a self-contained shard container of the
	// coordinator directory: every boundary of the restart policy, and the
	// re-bootstrap after a failure under either policy.
	kindContainer
	// kindMigrate assembles state live: stayers keep their job and fetch
	// only migrating EST shards; joiners fetch the full manifest off their
	// peers, disjoint slices from different sources.
	kindMigrate
)

// reconfig is the decoded MsgReconfigure payload.
type reconfig struct {
	Epoch uint64
	Slot  int
	Steps int
	Kind  int
	// LeaderAddr is the phase leader's (slot 0's) listen address, which
	// followers dial for gradient synchronization.
	LeaderAddr string
	Placement  core.Placement
	// Container is the full shard container (kindContainer).
	Container []byte
	// Manifest, PeerAddrs, Sources describe the migration fetch plan
	// (kindMigrate): Sources[i] indexes PeerAddrs per manifest entry.
	Manifest  checkpoint.Manifest
	PeerAddrs []string
	Sources   []int
	// WarmAddrs lists the phase's worker set under the live policy (every
	// kind): at phase end each worker pre-dials these shard servers into its
	// peer-connection cache, so the next boundary's migration fetch starts
	// with zero dials on the downtime path. The restart policy leaves it
	// empty — its sets never see a second boundary.
	WarmAddrs []string
}

func putPlacement(w *checkpoint.Writer, p core.Placement) {
	w.PutInt(len(p.Devices)) // PutInts' layout, which readPlacement reads
	for _, d := range p.Devices {
		w.PutInt(int(d))
	}
	w.PutInt(len(p.Assignment))
	for _, ranks := range p.Assignment {
		w.PutInts(ranks)
	}
}

func readPlacement(r *checkpoint.Reader) (core.Placement, error) {
	var p core.Placement
	devs, _ := r.Ints()
	p.Devices = make([]device.Type, len(devs))
	for i, d := range devs {
		p.Devices[i] = device.Type(d)
	}
	n, err := r.Int()
	if err != nil || n < 0 || n > r.Remaining()/8 {
		return p, fmt.Errorf("dist: placement declares %d workers in %d bytes", n, r.Remaining())
	}
	p.Assignment = make([][]int, n)
	for i := range p.Assignment {
		p.Assignment[i], _ = r.Ints()
	}
	return p, r.Err()
}

func putStrings(w *checkpoint.Writer, ss []string) {
	w.PutInt(len(ss))
	for _, s := range ss {
		w.PutString(s)
	}
}

func readStrings(r *checkpoint.Reader) ([]string, error) {
	n, err := r.Int()
	if err != nil || n < 0 || n > r.Remaining()/8 {
		return nil, fmt.Errorf("dist: frame declares %d strings in %d bytes", n, r.Remaining())
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i], _ = r.String()
	}
	return ss, r.Err()
}

func encodeReconfig(w *checkpoint.Writer, rc reconfig) {
	w.PutUint64(rc.Epoch)
	w.PutInt(rc.Slot)
	w.PutInt(rc.Steps)
	w.PutInt(rc.Kind)
	w.PutString(rc.LeaderAddr)
	putPlacement(w, rc.Placement)
	putStrings(w, rc.WarmAddrs)
	switch rc.Kind {
	case kindContainer:
		w.PutBytes(rc.Container)
	case kindMigrate:
		w.PutBytes(rc.Manifest.Encode())
		putStrings(w, rc.PeerAddrs)
		w.PutInts(rc.Sources)
	}
}

// decodeReconfig decodes a MsgReconfigure payload; Container stays a view of it.
func decodeReconfig(data []byte) (reconfig, error) {
	var rc reconfig
	r := checkpoint.NewReader(data)
	var err error
	rc.Epoch, _ = r.Uint64()
	rc.Slot, _ = r.Int()
	rc.Steps, _ = r.Int()
	rc.Kind, _ = r.Int()
	rc.LeaderAddr, _ = r.String()
	if rc.Placement, err = readPlacement(r); err != nil {
		return rc, err
	}
	if rc.Slot < 0 || rc.Slot >= len(rc.Placement.Assignment) {
		return rc, fmt.Errorf("dist: reconfigure slot %d outside placement of %d workers", rc.Slot, len(rc.Placement.Assignment))
	}
	if rc.WarmAddrs, err = readStrings(r); err != nil {
		return rc, err
	}
	switch rc.Kind {
	case kindFresh:
	case kindContainer:
		rc.Container, err = r.Bytes()
	case kindMigrate:
		mb, _ := r.Bytes()
		if err := r.Err(); err != nil {
			return rc, err
		}
		if rc.Manifest, err = checkpoint.DecodeManifest(mb); err != nil {
			return rc, err
		}
		if rc.PeerAddrs, err = readStrings(r); err != nil {
			return rc, err
		}
		if rc.Sources, err = r.Ints(); err != nil {
			return rc, err
		}
		if len(rc.Sources) != len(rc.Manifest.Entries) {
			return rc, fmt.Errorf("dist: reconfigure has %d sources for %d manifest entries", len(rc.Sources), len(rc.Manifest.Entries))
		}
		for _, s := range rc.Sources {
			if s < 0 || s >= len(rc.PeerAddrs) {
				return rc, fmt.Errorf("dist: reconfigure shard source %d outside [0,%d)", s, len(rc.PeerAddrs))
			}
		}
	default:
		return rc, fmt.Errorf("dist: unknown reconfigure kind %d", rc.Kind)
	}
	return rc, err
}

// putHashes / decodeHashes carry a hash list: a need list (MsgShardNeed), the
// content hashes of the manifest entries the receiver lacks, or a MsgShardGet.
func putHashes(w *checkpoint.Writer, hashes []uint64) {
	w.PutInt(len(hashes))
	for _, h := range hashes {
		w.PutUint64(h)
	}
}

func decodeHashes(data []byte) ([]uint64, error) {
	r := checkpoint.NewReader(data)
	n, err := r.Int()
	if err != nil || n < 0 || n != r.Remaining()/8 || r.Remaining()%8 != 0 {
		return nil, fmt.Errorf("%w: hash list declares %d hashes in %d bytes", checkpoint.ErrCorrupt, n, r.Remaining())
	}
	out := make([]uint64, n)
	for i := range out {
		out[i], _ = r.Uint64()
	}
	return out, r.Err()
}

// encodeShard appends one record of a MsgShard frame: a shard's hash and its
// length-prefixed bytes, copied straight into the frame under construction.
func encodeShard(w *checkpoint.Writer, hash uint64, data []byte) {
	w.PutUint64(hash)
	w.PutBytes(data)
}

// errNotHeld marks a request for a shard the sender does not hold.
var errNotHeld = errors.New("dist: shard not held")

// sendShards answers a hash list with the shards of set, in its order, as
// MsgShard frames of a count and encodeShard records. Each frame is built once,
// at its exact size, in c's frame buffer; the list is split only where a frame
// would pass limit (maxFrame).
func sendShards(c *conn, hashes []uint64, set *checkpoint.ShardSet, limit int) error {
	for len(hashes) > 0 {
		n, size := 0, 8 // the count
		for ; n < len(hashes); n++ {
			b, ok := set.Get(hashes[n])
			if !ok {
				return fmt.Errorf("%w: %016x", errNotHeld, hashes[n])
			}
			if n > 0 && size+16+len(b) > limit {
				break
			}
			size += 16 + len(b)
		}
		if cap(c.frame.Bytes()) < frameHeader+size { // replaced, not grown by doubling
			c.frame = checkpoint.Writer{}
			c.frame.Grow(frameHeader + size)
		}
		w := c.begin()
		w.PutInt(n)
		for _, h := range hashes[:n] {
			b, _ := set.Get(h)
			encodeShard(w, h, b)
		}
		if err := c.send(MsgShard); err != nil {
			return err
		}
		hashes = hashes[n:]
	}
	return nil
}

// readShards reads the MsgShard frames answering a request for want and hands
// each shard to add, in want's order. Counts are checked against the hashes
// still wanted and the bytes present before any record is read. The shards are
// capped views of the frames' read buffers, which they adopt: c reads its next
// frame into a buffer of its own.
func readShards(c *conn, want []uint64, add func(hash uint64, data []byte) error) error {
	for got := 0; got < len(want); {
		t, payload, err := ReadFrame(c)
		switch {
		case err != nil:
			return err
		case t == MsgReject:
			return fmt.Errorf("dist: peer rejected shard request: %s", payload)
		case t != MsgShard:
			return fmt.Errorf("dist: expected shard frame, got %d", t)
		}
		c.rbuf = nil
		r := checkpoint.NewReader(payload)
		n, err := r.Int()
		// a record is at least a hash and a length prefix
		if err != nil || n < 1 || n > len(want)-got || n > r.Remaining()/16 {
			return fmt.Errorf("%w: shard frame declares %d of %d shards in %d bytes", checkpoint.ErrCorrupt, n, len(want)-got, r.Remaining())
		}
		for range n {
			h, _ := r.Uint64()
			b, err := r.Bytes()
			if err != nil {
				return fmt.Errorf("dist: shard %016x: %w", h, err)
			}
			if h != want[got] { // shards arrive in the order they were asked for
				return fmt.Errorf("dist: asked for shard %016x, got %016x", want[got], h)
			}
			if err := add(h, b); err != nil {
				return err
			}
			got++
		}
		if r.Remaining() != 0 {
			return fmt.Errorf("%w: %d bytes after the last shard", checkpoint.ErrCorrupt, r.Remaining())
		}
	}
	return nil
}

// shipShards runs the sender side of an incremental shard-ship dialog on
// conn: offer the manifest, receive the need list, upload exactly the needed
// shards, close with MsgShipDone — four frames, whatever the shard count. The
// receiver's need list is what makes the ship incremental — shards it already
// holds (by content hash) never travel.
func shipShards(c *conn, m checkpoint.Manifest, set *checkpoint.ShardSet) (sent int, err error) {
	if err := WriteFrame(c, MsgManifest, m.Encode()); err != nil {
		return 0, err
	}
	needRaw, err := Expect(c, MsgShardNeed)
	if err != nil {
		return 0, err
	}
	need, err := decodeHashes(needRaw)
	if err != nil {
		return 0, err
	}
	if err := sendShards(c, need, set, maxFrame); err != nil {
		return 0, err
	}
	return len(need), WriteFrame(c, MsgShipDone, nil)
}

// receiveShards runs the receiver side of an incremental shard-ship dialog:
// given the offered manifest, request what the local store lacks, verify and
// admit each arriving shard. It returns how many shards it asked for.
func receiveShards(c *conn, m checkpoint.Manifest, set *checkpoint.ShardSet) (requested int, err error) {
	missing := set.Missing(m)
	want := make([]uint64, len(missing))
	for i, e := range missing {
		want[i] = e.Hash
	}
	putHashes(c.begin(), want)
	if err := c.send(MsgShardNeed); err != nil {
		return 0, err
	}
	// every shard asked for is in, verified as it was admitted: the store
	// covers the manifest
	if err := readShards(c, want, set.Add); err != nil {
		return 0, err
	}
	_, err = Expect(c, MsgShipDone)
	return len(want), err
}
