package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// State is one server node's view of the cluster: its identity, the
// current Map, and (on primaries) the replication fan-out to its replicas.
// The server consults it on every data frame — ownership checks sit on the
// hot path, so the current map hangs off an atomic pointer and the encoded
// form is cached per epoch for NOT_OWNER/CLUSTERMAP responses.
type State struct {
	self string
	cur  atomic.Pointer[Map]

	mu       sync.Mutex // serializes Join/Adopt and the encoded cache
	encEpoch uint64
	enc      []byte

	// persistDir, when set, receives an atomic SaveMap after every map
	// install so a full-cluster restart recovers topology from disk.
	persistDir string

	repl atomic.Pointer[Replicator]
	det  atomic.Pointer[detector]
}

// NewState builds a node's state from its id and an initial map, which
// must contain the node itself.
func NewState(self string, m *Map) (*State, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Node(self) == nil {
		return nil, fmt.Errorf("cluster: initial map has no node %q", self)
	}
	st := &State{self: self}
	st.cur.Store(m.Clone())
	return st, nil
}

// Self returns this node's id.
func (st *State) Self() string { return st.self }

// Map returns the current topology. Callers must treat it as immutable.
func (st *State) Map() *Map { return st.cur.Load() }

// Encoded returns the current map's wire encoding, cached per epoch.
// Callers must not retain or mutate the slice across epochs (the server
// writes it into a response frame before handling the next request).
func (st *State) Encoded() []byte {
	m := st.Map()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.enc == nil || st.encEpoch != m.Epoch {
		st.enc = EncodeMap(m)
		st.encEpoch = m.Epoch
	}
	return st.enc
}

// Adopt installs m if its epoch is newer than the current one, reporting
// whether it was installed. Replication targets refresh on adoption.
func (st *State) Adopt(m *Map) bool {
	if err := m.Validate(); err != nil {
		return false
	}
	st.mu.Lock()
	if m.Epoch <= st.cur.Load().Epoch {
		st.mu.Unlock()
		return false
	}
	st.cur.Store(m.Clone())
	st.mu.Unlock()
	st.mapInstalled()
	return true
}

// mapInstalled runs the after-install hooks shared by Adopt and Join:
// replication streams and health probes reconcile with the new
// membership, and the map is persisted if persistence is enabled.
func (st *State) mapInstalled() {
	if r := st.repl.Load(); r != nil {
		r.refresh()
	}
	if d := st.det.Load(); d != nil {
		d.refresh()
	}
	st.persist()
}

// Join merges a new (or re-announcing) node into the membership, bumping
// the epoch, and returns the new map for the joiner to gossip onward.
func (st *State) Join(n Node) (*Map, error) {
	st.mu.Lock()
	merged, err := st.cur.Load().WithNode(n)
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	st.cur.Store(merged)
	st.mu.Unlock()
	st.mapInstalled()
	return merged, nil
}

// HandleJoin services a CLUSTERJOIN frame: decode the joining node's
// record, merge it, and return the merged map encoded (the joiner's
// bootstrap answer). This is the server.ClusterState face of Join.
func (st *State) HandleJoin(payload []byte) ([]byte, error) {
	n, err := DecodeNode(payload)
	if err != nil {
		return nil, err
	}
	merged, err := st.Join(n)
	if err != nil {
		return nil, err
	}
	return EncodeMap(merged), nil
}

// HandleSync services a CLUSTERSYNC frame: adopt the gossiped map if
// newer, answer with this node's current map either way — sync doubles as
// an epoch exchange. This is the server.ClusterState face of Adopt.
func (st *State) HandleSync(payload []byte) ([]byte, error) {
	m, err := DecodeMap(payload)
	if err != nil {
		return nil, err
	}
	st.Adopt(m)
	return st.Encoded(), nil
}

// HandlePing services a CLUSTERPING frame (server dispatch): the sender's
// health record is absorbed, this node's is returned. Refused when no
// detector runs — the pinger reads the refusal itself as proof of life.
func (st *State) HandlePing(payload []byte) ([]byte, error) {
	d := st.det.Load()
	if d == nil {
		return nil, fmt.Errorf("cluster: health detector not running")
	}
	return d.handlePing(payload)
}

// HandleLeave services a CLUSTERLEAVE frame (server dispatch): the named
// node is marked confirmed-dead immediately, skipping the suspicion
// timeout. Without a detector the announcement is validated and dropped —
// leave is advisory, a node that ignores it just detects the death slowly.
func (st *State) HandleLeave(payload []byte) ([]byte, error) {
	if d := st.det.Load(); d != nil {
		return nil, d.handleLeave(payload)
	}
	_, err := decodeLeave(payload)
	return nil, err
}

// StartHealth starts this node's failure detector (idempotent — the
// first configuration wins). With it running, the node heartbeats every
// peer, gossips suspicion, confirms deaths by quorum, and — when it is
// the most-caught-up replica of a confirmed-dead primary — promotes
// itself and gossips the new map.
func (st *State) StartHealth(cfg HealthConfig) {
	d := newDetector(st, cfg)
	if st.det.CompareAndSwap(nil, d) {
		d.start()
	}
}

// HealthStats reports detector decisions: deaths confirmed and
// self-promotions performed.
func (st *State) HealthStats() (confirmedDeaths, promotions int64) {
	if d := st.det.Load(); d != nil {
		return d.confirmedDeaths.Load(), d.promotions.Load()
	}
	return 0, 0
}

// EnablePersistence saves the current map under dir now and after every
// future map install, so a restart can recover topology with LoadMap
// instead of -cluster flags. The initial save's error is returned;
// subsequent saves are best effort (the boot path re-syncs with live
// peers anyway, so a missed save costs staleness, not correctness).
func (st *State) EnablePersistence(dir string) error {
	st.mu.Lock()
	st.persistDir = dir
	st.mu.Unlock()
	return SaveMap(dir, st.self, st.Map())
}

// persist best-effort-saves the current map if persistence is enabled.
func (st *State) persist() {
	st.mu.Lock()
	dir := st.persistDir
	st.mu.Unlock()
	if dir != "" {
		_ = SaveMap(dir, st.self, st.Map())
	}
}

// ranges returns the slot ranges this node serves reads for: its own when
// primary, its primary's when replica.
func (st *State) readRanges(m *Map) []Range {
	n := m.Node(st.self)
	if n == nil {
		return nil
	}
	if n.Role == RoleReplica {
		if p := m.Node(n.PrimaryID); p != nil {
			return p.Ranges
		}
		return nil
	}
	return n.Ranges
}

// ReadOwned reports whether this node may serve reads for key: primaries
// for their own ranges, replicas for their primary's.
func (st *State) ReadOwned(key uint64) bool {
	slot := Slot(key)
	for _, r := range st.readRanges(st.Map()) {
		if r.Contains(slot) {
			return true
		}
	}
	return false
}

// WriteOwned reports whether this node accepts client writes for key:
// only the owning primary does (replicas take writes solely over the
// replication stream, which bypasses this check).
func (st *State) WriteOwned(key uint64) bool {
	m := st.Map()
	n := m.Node(st.self)
	if n == nil || n.Role != RolePrimary {
		return false
	}
	slot := Slot(key)
	for _, r := range n.Ranges {
		if r.Contains(slot) {
			return true
		}
	}
	return false
}

// EnableReplication starts the primary→replica write stream for this
// node. Harmless on nodes without replicas — the replicator idles until
// the map names some.
func (st *State) EnableReplication() {
	st.repl.CompareAndSwap(nil, newReplicator(st))
	if r := st.repl.Load(); r != nil {
		r.refresh()
	}
}

// Replicate forwards a committed write to this node's replicas, if
// replication is enabled and the map names any. keys and vals are copied —
// the server reuses its frame buffers. bound is the staleness bound the
// model runs here, which a replica opens it under.
func (st *State) Replicate(model string, dim int, bound int64, kind byte, keys []uint64, vals []byte) {
	if r := st.repl.Load(); r != nil {
		r.replicate(model, dim, bound, kind, keys, vals)
	}
}

// ReplicationDropped counts write records lost to a replica for good:
// evicted from the replay ring before a sender could deliver them, or
// refused by the replica. The replica sees the sequence gap and pins its
// advertised lag at the last contiguously applied sequence, so it stays
// out of SSP rotation rather than serving values staler than the bound.
func (st *State) ReplicationDropped() int64 {
	if r := st.repl.Load(); r != nil {
		return r.dropped.Load()
	}
	return 0
}

// Close stops the replication streams and the failure detector.
func (st *State) Close() {
	if d := st.det.Load(); d != nil {
		d.close()
	}
	if r := st.repl.Load(); r != nil {
		r.close()
	}
}
