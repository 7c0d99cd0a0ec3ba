// Package cluster makes N mlkv-server processes one logical store. It has
// three faces:
//
//   - Map: the epoch-numbered topology every node and client shares — node
//     id → address → consistent-hash slot ranges → role. Primaries own
//     disjoint ranges of a 64-bit hash ring; replicas mirror one primary.
//   - State: the server side. Each node holds its current Map, answers
//     CLUSTERMAP/CLUSTERJOIN/CLUSTERSYNC frames, rejects data ops for keys
//     it does not own with a NOT_OWNER redirect carrying the map, and (on
//     primaries) streams writes to its replicas.
//   - Router: the client side. It lifts internal/kv's shard fan-out one
//     level up — per-server key groups, parallel batch fan-out with the
//     blocking-bound serial gate — and routes reads by staleness bound:
//     ASP reads may hit any replica, BSP must hit the primary, SSP hits a
//     replica only when its advertised lag passes hotcache.Admissible.
//
// A client bootstraps from any seed node (CLUSTERMAP probe) and refreshes
// its cached map whenever a NOT_OWNER response attaches a newer epoch, so
// topology changes propagate without a coordination service.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/llm-db/mlkv-go/internal/util"
)

// Role is a node's place in the cluster.
type Role uint8

const (
	// RolePrimary owns hash ranges and accepts writes for them.
	RolePrimary Role = 1
	// RoleReplica mirrors one primary's ranges and serves bounded-staleness
	// reads for them; writes arrive only over the replication stream.
	RoleReplica Role = 2
)

// String names the role for diagnostics.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Topology caps. They bound the encoded map (codec.go rejects anything
// larger) so a hostile or corrupt CLUSTERMAP payload cannot force a giant
// allocation.
const (
	// MaxNodes bounds cluster membership.
	MaxNodes = 64
	// MaxNodeID bounds a node id's byte length.
	MaxNodeID = 128
	// MaxNodeAddr bounds a node address's byte length.
	MaxNodeAddr = 256
	// MaxRangesPerNode bounds one node's slot-range list.
	MaxRangesPerNode = 256
)

// slotSalt folds keys onto the cluster hash ring. It is deliberately
// distinct from util.HashKey's and util.ShardOf's salts so cluster
// placement, intra-node shard placement, and index placement decorrelate:
// a key group landing on one node still spreads across that node's shards.
const slotSalt = 0xd6e8feb86659fd93

// Slot maps a key to its position on the 64-bit hash ring.
func Slot(key uint64) uint64 { return util.Mix64(key ^ slotSalt) }

// Range is one contiguous slot interval, inclusive on both ends.
type Range struct {
	Start uint64
	End   uint64
}

// Contains reports whether slot falls inside the range.
func (r Range) Contains(slot uint64) bool { return slot >= r.Start && slot <= r.End }

// Node is one cluster member.
type Node struct {
	// ID names the node; it is the stable identity (-cluster flag value).
	ID string
	// Addr is the host:port clients and peers dial.
	Addr string
	// Role says whether the node owns ranges or mirrors a primary.
	Role Role
	// PrimaryID names the primary a replica mirrors (empty on primaries).
	PrimaryID string
	// Ranges are the slot intervals a primary owns (empty on replicas —
	// a replica serves its primary's ranges, looked up through PrimaryID).
	Ranges []Range
}

// Map is the shared topology at one epoch. Nodes are sorted by ID and the
// primaries' ranges partition the full ring, so Owner is total: every key
// has exactly one owning primary.
type Map struct {
	// Epoch orders map versions; higher wins. Join bumps it.
	Epoch uint64
	// Nodes is the membership, sorted by ID.
	Nodes []Node
}

// Validate checks structural invariants: caps, sorted unique ids, at least
// one primary, replicas naming existing primaries, and — because Owner
// must be total — that the primaries' ranges exactly partition the full
// ring, with no gaps and no overlaps.
func (m *Map) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("cluster: map has no nodes")
	}
	if len(m.Nodes) > MaxNodes {
		return fmt.Errorf("cluster: %d nodes exceeds limit %d", len(m.Nodes), MaxNodes)
	}
	primaries := map[string]bool{}
	for _, n := range m.Nodes {
		if n.ID == "" || len(n.ID) > MaxNodeID {
			return fmt.Errorf("cluster: bad node id %q", n.ID)
		}
		if n.Addr == "" || len(n.Addr) > MaxNodeAddr {
			return fmt.Errorf("cluster: node %q has bad address %q", n.ID, n.Addr)
		}
		if len(n.Ranges) > MaxRangesPerNode {
			return fmt.Errorf("cluster: node %q has %d ranges, limit %d", n.ID, len(n.Ranges), MaxRangesPerNode)
		}
		switch n.Role {
		case RolePrimary:
			primaries[n.ID] = true
		case RoleReplica:
			if n.PrimaryID == "" {
				return fmt.Errorf("cluster: replica %q names no primary", n.ID)
			}
		default:
			return fmt.Errorf("cluster: node %q has unknown role %d", n.ID, n.Role)
		}
	}
	for i := 1; i < len(m.Nodes); i++ {
		if m.Nodes[i-1].ID >= m.Nodes[i].ID {
			return fmt.Errorf("cluster: node ids not sorted/unique at %q", m.Nodes[i].ID)
		}
	}
	if len(primaries) == 0 {
		return fmt.Errorf("cluster: map has no primary")
	}
	for _, n := range m.Nodes {
		if n.Role == RoleReplica && !primaries[n.PrimaryID] {
			return fmt.Errorf("cluster: replica %q names unknown primary %q", n.ID, n.PrimaryID)
		}
	}
	// Owner is total only if the primaries' ranges partition the whole
	// ring: a structurally-plausible map from a peer with a gap would make
	// the gapped keys permanently unroutable, an overlap would make
	// ownership ambiguous.
	var ranges []Range
	for _, n := range m.Nodes {
		if n.Role != RolePrimary {
			continue
		}
		for _, r := range n.Ranges {
			if r.Start > r.End {
				return fmt.Errorf("cluster: node %q has inverted range [%#x, %#x]", n.ID, r.Start, r.End)
			}
			ranges = append(ranges, r)
		}
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Start < ranges[j].Start })
	if len(ranges) == 0 || ranges[0].Start != 0 {
		return fmt.Errorf("cluster: primary ranges do not cover the ring start")
	}
	for i := 1; i < len(ranges); i++ {
		prev, cur := ranges[i-1], ranges[i]
		if cur.Start <= prev.End {
			return fmt.Errorf("cluster: primary ranges overlap at slot %#x", cur.Start)
		}
		if cur.Start != prev.End+1 {
			return fmt.Errorf("cluster: ring gap between slots %#x and %#x", prev.End, cur.Start)
		}
	}
	if end := ranges[len(ranges)-1].End; end != math.MaxUint64 {
		return fmt.Errorf("cluster: ring gap after slot %#x", end)
	}
	return nil
}

// Node returns the member with the given id, or nil.
func (m *Map) Node(id string) *Node {
	i := sort.Search(len(m.Nodes), func(i int) bool { return m.Nodes[i].ID >= id })
	if i < len(m.Nodes) && m.Nodes[i].ID == id {
		return &m.Nodes[i]
	}
	return nil
}

// OwnerOfSlot returns the primary whose ranges contain slot. A valid map
// partitions the ring, so the only nil case is a malformed map.
func (m *Map) OwnerOfSlot(slot uint64) *Node {
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.Role != RolePrimary {
			continue
		}
		for _, r := range n.Ranges {
			if r.Contains(slot) {
				return n
			}
		}
	}
	return nil
}

// Owner returns the primary owning key.
func (m *Map) Owner(key uint64) *Node { return m.OwnerOfSlot(Slot(key)) }

// ReplicasOf returns the replicas mirroring the named primary.
func (m *Map) ReplicasOf(primaryID string) []*Node {
	var out []*Node
	for i := range m.Nodes {
		if m.Nodes[i].Role == RoleReplica && m.Nodes[i].PrimaryID == primaryID {
			out = append(out, &m.Nodes[i])
		}
	}
	return out
}

// Primaries returns the range-owning nodes in ID order.
func (m *Map) Primaries() []*Node {
	var out []*Node
	for i := range m.Nodes {
		if m.Nodes[i].Role == RolePrimary {
			out = append(out, &m.Nodes[i])
		}
	}
	return out
}

// Clone deep-copies the map so adopters can hold it immutably.
func (m *Map) Clone() *Map {
	out := &Map{Epoch: m.Epoch, Nodes: make([]Node, len(m.Nodes))}
	copy(out.Nodes, m.Nodes)
	for i := range out.Nodes {
		out.Nodes[i].Ranges = append([]Range(nil), out.Nodes[i].Ranges...)
	}
	return out
}

// assignRanges deterministically splits the ring evenly across the
// primaries in ID order: every node that sees the same membership computes
// the same ownership without negotiation. The last primary absorbs the
// division remainder so the ranges cover the ring exactly.
func assignRanges(nodes []Node) {
	var primaries []*Node
	for i := range nodes {
		nodes[i].Ranges = nil
		if nodes[i].Role == RolePrimary {
			primaries = append(primaries, &nodes[i])
		}
	}
	p := uint64(len(primaries))
	if p == 0 {
		return
	}
	width := math.MaxUint64/p + 1 // ring size 2^64 split p ways, rounded up
	start := uint64(0)
	for i, n := range primaries {
		end := uint64(math.MaxUint64)
		if i < len(primaries)-1 {
			end = start + width - 1
		}
		n.Ranges = []Range{{Start: start, End: end}}
		start = end + 1
	}
}

// BuildMap constructs a validated epoch-1 map from a membership list,
// sorting nodes and assigning ranges.
func BuildMap(nodes []Node) (*Map, error) {
	m := &Map{Epoch: 1, Nodes: append([]Node(nil), nodes...)}
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].ID < m.Nodes[j].ID })
	assignRanges(m.Nodes)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Promote returns a new map in which promoteID (a replica of the
// confirmed-dead primary deadID) takes over the dead primary's ranges
// wholesale, with the epoch bumped. The receiver is unchanged.
//
// Unlike WithNode this must NOT rerun assignRanges: an even re-split
// would shuffle ownership across every surviving primary, invalidating
// data placement cluster-wide, when the only thing that changed is who
// serves the dead node's ranges. The ranges move as a block to the node
// that already holds a replicated copy of them.
//
// The dead node stays in the map, demoted to a replica of its successor:
// when it rejoins (process restart, partition heal) it adopts the newer
// epoch, finds itself a non-owner, refuses client writes, and receives
// catch-up writes over the new primary's replication stream — demotion is
// the map's default, not a separate protocol step, so a stale primary
// cannot split-brain the range. Other replicas of the dead primary are
// re-pointed at the successor.
func (m *Map) Promote(deadID, promoteID string) (*Map, error) {
	out := m.Clone()
	out.Epoch = m.Epoch + 1
	dead := out.Node(deadID)
	promoted := out.Node(promoteID)
	if dead == nil || promoted == nil {
		return nil, fmt.Errorf("cluster: promote %q over %q: node not in map", promoteID, deadID)
	}
	if dead.Role != RolePrimary {
		return nil, fmt.Errorf("cluster: cannot promote over %q: not a primary", deadID)
	}
	if promoted.Role != RoleReplica || promoted.PrimaryID != deadID {
		return nil, fmt.Errorf("cluster: %q is not a replica of %q", promoteID, deadID)
	}
	promoted.Role = RolePrimary
	promoted.PrimaryID = ""
	promoted.Ranges = append([]Range(nil), dead.Ranges...)
	dead.Role = RoleReplica
	dead.PrimaryID = promoteID
	dead.Ranges = nil
	for i := range out.Nodes {
		n := &out.Nodes[i]
		if n.Role == RoleReplica && n.PrimaryID == deadID && n.ID != deadID {
			n.PrimaryID = promoteID
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// WithNode returns a new map with n added (or replaced, matching by ID),
// ranges reassigned, and the epoch bumped. The receiver is unchanged.
func (m *Map) WithNode(n Node) (*Map, error) {
	out := m.Clone()
	out.Epoch = m.Epoch + 1
	if old := out.Node(n.ID); old != nil {
		*old = n
	} else {
		out.Nodes = append(out.Nodes, n)
		sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].ID < out.Nodes[j].ID })
	}
	assignRanges(out.Nodes)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
