package dist

import (
	"fmt"
	"slices"

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

// decodeHashes decodes a need list (MsgShardNeed): the content hashes of the
// manifest entries the receiver lacks.
func decodeHashes(data []byte) ([]uint64, error) {
	r := checkpoint.NewReader(data)
	n, err := r.Int()
	if err != nil || n < 0 || n > r.Remaining()/8 {
		return nil, fmt.Errorf("dist: need list declares %d hashes in %d bytes", n, r.Remaining())
	}
	out := make([]uint64, n)
	for i := range out {
		out[i], _ = r.Uint64()
	}
	return out, r.Err()
}

// encodeShard / decodeShard carry one content-addressed shard (MsgShard).
// The encoder appends the shard to the frame under construction, the decoder
// returns a view of the payload: neither makes a copy of its own.
func encodeShard(w *checkpoint.Writer, hash uint64, data []byte) {
	w.PutUint64(hash)
	w.PutBytes(data)
}

func decodeShard(payload []byte) (uint64, []byte, error) {
	r := checkpoint.NewReader(payload)
	h, _ := r.Uint64()
	b, err := r.Bytes()
	return h, b, err
}

// shipShards runs the sender side of an incremental shard-ship dialog on
// conn: offer the manifest, receive the need list, upload exactly the needed
// shards, close with MsgShipDone. The receiver's need list is what makes the
// ship incremental — shards it already holds (by content hash) never travel.
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
	for _, h := range need {
		b, ok := set.Get(h)
		if !ok {
			return sent, fmt.Errorf("dist: peer needs shard %016x the sender does not hold", h)
		}
		encodeShard(c.begin(), h, b)
		if err := c.send(MsgShard); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, WriteFrame(c, MsgShipDone, nil)
}

// receiveShards runs the receiver side of an incremental shard-ship dialog:
// given the offered manifest, request what the local store lacks, verify and
// admit each arriving shard. It returns how many shards it asked for.
func receiveShards(c *conn, m checkpoint.Manifest, set *checkpoint.ShardSet) (requested int, err error) {
	missing := set.Missing(m)
	need := c.begin()
	need.PutInt(len(missing))
	for _, e := range missing {
		need.PutUint64(e.Hash)
	}
	if err := c.send(MsgShardNeed); err != nil {
		return 0, err
	}
	for _, e := range missing {
		payload, err := Expect(c, MsgShard)
		if err != nil {
			return 0, err
		}
		h, b, err := decodeShard(payload)
		if err != nil {
			return 0, err
		}
		if h != e.Hash { // shards arrive in the order they were asked for
			return 0, fmt.Errorf("dist: asked for shard %016x, got %016x", e.Hash, h)
		}
		// the store keeps the shard past the next read on c: its one copy on
		// the way in, at its exact size, verified as it is admitted
		if err := set.Add(h, slices.Clone(b)); err != nil {
			return 0, err
		}
	}
	// every shard asked for is in: the store covers the manifest
	_, err = Expect(c, MsgShipDone)
	return len(missing), err
}
