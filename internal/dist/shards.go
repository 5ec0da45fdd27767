package dist

import (
	"fmt"
	"net"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/device"
)

// Wire codecs for the sharded-checkpoint protocol: placement and
// reconfiguration frames, manifest offers, need lists, and shard transfers.
// Everything decodes through the checkpoint reader with the same
// allocation-bomb bounds as the gradient codecs.

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
	devs := make([]int, len(p.Devices))
	for i, d := range p.Devices {
		devs[i] = int(d)
	}
	w.PutInts(devs)
	w.PutInt(len(p.Assignment))
	for _, ranks := range p.Assignment {
		w.PutInts(ranks)
	}
}

func readPlacement(r *checkpoint.Reader) (core.Placement, error) {
	var p core.Placement
	devs, err := r.Ints()
	if err != nil {
		return p, err
	}
	p.Devices = make([]device.Type, len(devs))
	for i, d := range devs {
		p.Devices[i] = device.Type(d)
	}
	n, err := r.Int()
	if err != nil {
		return p, err
	}
	if n < 0 || n > r.Remaining()/8 {
		return p, fmt.Errorf("dist: placement declares %d workers in %d bytes", n, r.Remaining())
	}
	p.Assignment = make([][]int, n)
	for i := range p.Assignment {
		if p.Assignment[i], err = r.Ints(); err != nil {
			return p, err
		}
	}
	return p, nil
}

func encodeReconfig(rc reconfig) []byte {
	w := checkpoint.NewWriter()
	w.PutUint64(rc.Epoch)
	w.PutInt(rc.Slot)
	w.PutInt(rc.Steps)
	w.PutInt(rc.Kind)
	w.PutString(rc.LeaderAddr)
	putPlacement(w, rc.Placement)
	w.PutInt(len(rc.WarmAddrs))
	for _, a := range rc.WarmAddrs {
		w.PutString(a)
	}
	switch rc.Kind {
	case kindContainer:
		w.PutString(string(rc.Container))
	case kindMigrate:
		w.PutString(string(rc.Manifest.Encode()))
		w.PutInt(len(rc.PeerAddrs))
		for _, a := range rc.PeerAddrs {
			w.PutString(a)
		}
		w.PutInts(rc.Sources)
	}
	return w.Bytes()
}

func decodeReconfig(data []byte) (reconfig, error) {
	var rc reconfig
	r := checkpoint.NewReader(data)
	var err error
	if rc.Epoch, err = r.Uint64(); err != nil {
		return rc, err
	}
	if rc.Slot, err = r.Int(); err != nil {
		return rc, err
	}
	if rc.Steps, err = r.Int(); err != nil {
		return rc, err
	}
	if rc.Kind, err = r.Int(); err != nil {
		return rc, err
	}
	if rc.LeaderAddr, err = r.String(); err != nil {
		return rc, err
	}
	if rc.Placement, err = readPlacement(r); err != nil {
		return rc, err
	}
	if rc.Slot < 0 || rc.Slot >= len(rc.Placement.Assignment) {
		return rc, fmt.Errorf("dist: reconfigure slot %d outside placement of %d workers", rc.Slot, len(rc.Placement.Assignment))
	}
	nw, err := r.Int()
	if err != nil {
		return rc, err
	}
	if nw < 0 || nw > r.Remaining()/8 {
		return rc, fmt.Errorf("dist: reconfigure declares %d warm addrs in %d bytes", nw, r.Remaining())
	}
	rc.WarmAddrs = make([]string, nw)
	for i := range rc.WarmAddrs {
		if rc.WarmAddrs[i], err = r.String(); err != nil {
			return rc, err
		}
	}
	switch rc.Kind {
	case kindFresh:
	case kindContainer:
		s, err := r.String()
		if err != nil {
			return rc, err
		}
		rc.Container = []byte(s)
	case kindMigrate:
		mb, err := r.String()
		if err != nil {
			return rc, err
		}
		if rc.Manifest, err = checkpoint.DecodeManifest([]byte(mb)); err != nil {
			return rc, err
		}
		np, err := r.Int()
		if err != nil {
			return rc, err
		}
		if np < 0 || np > r.Remaining()/8 {
			return rc, fmt.Errorf("dist: reconfigure declares %d peers in %d bytes", np, r.Remaining())
		}
		rc.PeerAddrs = make([]string, np)
		for i := range rc.PeerAddrs {
			if rc.PeerAddrs[i], err = r.String(); err != nil {
				return rc, err
			}
		}
		if rc.Sources, err = r.Ints(); err != nil {
			return rc, err
		}
		if len(rc.Sources) != len(rc.Manifest.Entries) {
			return rc, fmt.Errorf("dist: reconfigure has %d sources for %d manifest entries", len(rc.Sources), len(rc.Manifest.Entries))
		}
		for _, s := range rc.Sources {
			if s < 0 || s >= np {
				return rc, fmt.Errorf("dist: reconfigure shard source %d outside [0,%d)", s, np)
			}
		}
	default:
		return rc, fmt.Errorf("dist: unknown reconfigure kind %d", rc.Kind)
	}
	return rc, nil
}

// encodeHashes / decodeHashes carry a need list (MsgShardNeed).
func encodeHashes(hs []uint64) []byte {
	w := checkpoint.NewWriter()
	w.PutInt(len(hs))
	for _, h := range hs {
		w.PutUint64(h)
	}
	return w.Bytes()
}

func decodeHashes(data []byte) ([]uint64, error) {
	r := checkpoint.NewReader(data)
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Remaining()/8 {
		return nil, fmt.Errorf("dist: need list declares %d hashes in %d bytes", n, r.Remaining())
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = r.Uint64(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encodeShard / decodeShard carry one content-addressed shard (MsgShard).
func encodeShard(hash uint64, data []byte) []byte {
	w := checkpoint.NewWriter()
	w.PutUint64(hash)
	w.PutString(string(data))
	return w.Bytes()
}

func decodeShard(payload []byte) (uint64, []byte, error) {
	r := checkpoint.NewReader(payload)
	h, err := r.Uint64()
	if err != nil {
		return 0, nil, err
	}
	s, err := r.String()
	if err != nil {
		return 0, nil, err
	}
	return h, []byte(s), nil
}

// shipShards runs the sender side of an incremental shard-ship dialog on
// conn: offer the manifest, receive the need list, upload exactly the needed
// shards, close with MsgShipDone. The receiver's need list is what makes the
// ship incremental — shards it already holds (by content hash) never travel.
func shipShards(conn net.Conn, m checkpoint.Manifest, set *checkpoint.ShardSet) (sent int, err error) {
	if err := WriteFrame(conn, MsgManifest, m.Encode()); err != nil {
		return 0, err
	}
	needRaw, err := Expect(conn, MsgShardNeed)
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
		if err := WriteFrame(conn, MsgShard, encodeShard(h, b)); err != nil {
			return sent, err
		}
		sent++
	}
	return sent, WriteFrame(conn, MsgShipDone, nil)
}

// receiveShards runs the receiver side of an incremental shard-ship dialog:
// given the offered manifest, request what the local store lacks, verify and
// admit each arriving shard, and confirm the store covers the manifest.
func receiveShards(conn net.Conn, m checkpoint.Manifest, set *checkpoint.ShardSet) error {
	missing := set.Missing(m)
	need := make([]uint64, len(missing))
	for i, e := range missing {
		need[i] = e.Hash
	}
	if err := WriteFrame(conn, MsgShardNeed, encodeHashes(need)); err != nil {
		return err
	}
	for range need {
		payload, err := Expect(conn, MsgShard)
		if err != nil {
			return err
		}
		h, b, err := decodeShard(payload)
		if err != nil {
			return err
		}
		if err := set.Add(h, b); err != nil {
			return err
		}
	}
	if _, err := Expect(conn, MsgShipDone); err != nil {
		return err
	}
	if left := set.Missing(m); len(left) != 0 {
		return fmt.Errorf("dist: ship left %d shards missing", len(left))
	}
	return nil
}
