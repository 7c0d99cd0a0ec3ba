// Package stats holds the one counter record every layer below the public
// API shares. An engine shard fills the engine counters, kv sums shards and
// adds the hot tier, core and the server add their batch counters and
// latency summaries, the client pool and cluster router add theirs, and the
// same value travels up unchanged — over the wire as a STATS frame, out of
// mlkv-server as expvar JSON, and into mlkv.Stats at the public boundary.
//
// Adding a counter is one Counters field plus one row in fields; Add, Sub,
// the wire codec and the JSON all follow from the table.
package stats

import (
	"encoding/binary"
	"fmt"

	"github.com/llm-db/mlkv-go/internal/latency"
)

// Counters is one model's counter snapshot. A layer that does not own a
// field leaves it zero.
type Counters struct {
	// Engine counters, owned by the hybrid log and summed across shards.
	Gets             int64
	Puts             int64
	RMWs             int64
	Deletes          int64
	MemHits          int64
	DiskReads        int64
	InPlaceUpdates   int64
	RCUAppends       int64
	PrefetchCopies   int64
	AbandonedAppends int64
	StalenessWaits   int64
	FlushedPages     int64
	BytesFlushed     int64
	GroupCommits     int64 // multi-page flush writes
	FlushPaceStalls  int64 // pacing sleeps taken between flush writes

	// Call counters, owned by the layer that serves the calls: core.Table
	// locally, the server's conn handler (frames served) remotely.
	BatchGets      int64
	BatchPuts      int64
	LookaheadCalls int64
	// PrefetchDropped counts the keys of Lookahead hints dropped by the
	// model's hint queue (core.HintQueue, the table's locally, the remote
	// driver's client-side): from the first chunk that finds the queue
	// full, the rest of the hint.
	PrefetchDropped int64

	// Hot-tier counters, owned by whichever tier fronts the store (the
	// sharded store's own, kv.ShardedConfig.CacheEntries — a local table's
	// or a server's — and the remote driver's client-side tier); tiers in
	// front of the same store add up. A miss includes entries present but
	// inadmissible under the staleness bound.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64

	// ActiveSessions is the open-session gauge: core's session balance
	// locally, the server's attach-minus-detach balance remotely.
	ActiveSessions int64
	// ReplicaLag is how far a replica's replication stream trails its
	// primary, in write events; zero on primaries and non-clustered
	// servers. Merged as a maximum: the cluster view is the laggiest
	// replica.
	ReplicaLag int64

	// Cluster counters, owned by the cluster router: node count and map
	// epoch it currently holds, NOT_OWNER redirects followed, and keys
	// served by replicas instead of primaries.
	ClusterNodes     int64
	ClusterEpoch     int64
	ClusterRedirects int64
	ReplicaReads     int64

	// Redial counters, owned by the client pool: redial attempts made
	// against broken pooled connections, and checkouts the backoff breaker
	// refused fast.
	DialRetries  int64
	DialBackoffs int64

	// Per-op-class latency summaries in nanoseconds, owned by the layer
	// that times the calls: core.Table (store operations), the server
	// (store calls in the conn handler; LatRMW is the APPLY frame's engine
	// RMW), and the client pool or router (round trips; LatRMW is the APPLY
	// round trip).
	LatGet      latency.Snapshot
	LatGetBatch latency.Snapshot
	LatPut      latency.Snapshot
	LatPutBatch latency.Snapshot
	LatRMW      latency.Snapshot
}

// kind is how two snapshots of one field merge.
type kind uint8

const (
	// kindSum adds across shards, tiers, pools and nodes; Sub subtracts.
	kindSum kind = iota
	// kindMax keeps the larger value (gauges where the worst or newest wins);
	// Sub keeps the minuend's.
	kindMax
	// kindFold merges latency summaries: counts and sums add, max and
	// percentiles keep the worst side — a merged percentile without the raw
	// histograms would be a guess. Sub subtracts counts and sums only.
	kindFold
)

// field is one row of the table: exactly one accessor is set, num for kindSum
// and kindMax fields, lat for kindFold fields.
type field struct {
	name string
	kind kind
	num  func(*Counters) *int64
	lat  func(*Counters) *latency.Snapshot
}

// fields is the one table. Its order is the STATS wire order; changing it
// (or adding a row) is a wire.Version bump.
var fields = []field{
	{"Gets", kindSum, func(c *Counters) *int64 { return &c.Gets }, nil},
	{"Puts", kindSum, func(c *Counters) *int64 { return &c.Puts }, nil},
	{"RMWs", kindSum, func(c *Counters) *int64 { return &c.RMWs }, nil},
	{"Deletes", kindSum, func(c *Counters) *int64 { return &c.Deletes }, nil},
	{"MemHits", kindSum, func(c *Counters) *int64 { return &c.MemHits }, nil},
	{"DiskReads", kindSum, func(c *Counters) *int64 { return &c.DiskReads }, nil},
	{"InPlaceUpdates", kindSum, func(c *Counters) *int64 { return &c.InPlaceUpdates }, nil},
	{"RCUAppends", kindSum, func(c *Counters) *int64 { return &c.RCUAppends }, nil},
	{"PrefetchCopies", kindSum, func(c *Counters) *int64 { return &c.PrefetchCopies }, nil},
	{"AbandonedAppends", kindSum, func(c *Counters) *int64 { return &c.AbandonedAppends }, nil},
	{"StalenessWaits", kindSum, func(c *Counters) *int64 { return &c.StalenessWaits }, nil},
	{"FlushedPages", kindSum, func(c *Counters) *int64 { return &c.FlushedPages }, nil},
	{"BytesFlushed", kindSum, func(c *Counters) *int64 { return &c.BytesFlushed }, nil},
	{"GroupCommits", kindSum, func(c *Counters) *int64 { return &c.GroupCommits }, nil},
	{"FlushPaceStalls", kindSum, func(c *Counters) *int64 { return &c.FlushPaceStalls }, nil},
	{"BatchGets", kindSum, func(c *Counters) *int64 { return &c.BatchGets }, nil},
	{"BatchPuts", kindSum, func(c *Counters) *int64 { return &c.BatchPuts }, nil},
	{"LookaheadCalls", kindSum, func(c *Counters) *int64 { return &c.LookaheadCalls }, nil},
	{"PrefetchDropped", kindSum, func(c *Counters) *int64 { return &c.PrefetchDropped }, nil},
	{"CacheHits", kindSum, func(c *Counters) *int64 { return &c.CacheHits }, nil},
	{"CacheMisses", kindSum, func(c *Counters) *int64 { return &c.CacheMisses }, nil},
	{"CacheEvictions", kindSum, func(c *Counters) *int64 { return &c.CacheEvictions }, nil},
	{"ActiveSessions", kindSum, func(c *Counters) *int64 { return &c.ActiveSessions }, nil},
	{"ReplicaLag", kindMax, func(c *Counters) *int64 { return &c.ReplicaLag }, nil},
	{"ClusterNodes", kindMax, func(c *Counters) *int64 { return &c.ClusterNodes }, nil},
	{"ClusterEpoch", kindMax, func(c *Counters) *int64 { return &c.ClusterEpoch }, nil},
	{"ClusterRedirects", kindSum, func(c *Counters) *int64 { return &c.ClusterRedirects }, nil},
	{"ReplicaReads", kindSum, func(c *Counters) *int64 { return &c.ReplicaReads }, nil},
	{"DialRetries", kindSum, func(c *Counters) *int64 { return &c.DialRetries }, nil},
	{"DialBackoffs", kindSum, func(c *Counters) *int64 { return &c.DialBackoffs }, nil},
	{"LatGet", kindFold, nil, func(c *Counters) *latency.Snapshot { return &c.LatGet }},
	{"LatGetBatch", kindFold, nil, func(c *Counters) *latency.Snapshot { return &c.LatGetBatch }},
	{"LatPut", kindFold, nil, func(c *Counters) *latency.Snapshot { return &c.LatPut }},
	{"LatPutBatch", kindFold, nil, func(c *Counters) *latency.Snapshot { return &c.LatPutBatch }},
	{"LatRMW", kindFold, nil, func(c *Counters) *latency.Snapshot { return &c.LatRMW }},
}

// slots lists every int64 of c in table order, a latency summary expanded
// to Count, Sum, Max, P50, P90, P99, P999.
func (c *Counters) slots() []*int64 {
	var out []*int64
	for _, f := range fields {
		if f.kind != kindFold {
			out = append(out, f.num(c))
			continue
		}
		l := f.lat(c)
		out = append(out, &l.Count, &l.Sum, &l.Max, &l.P50, &l.P90, &l.P99, &l.P999)
	}
	return out
}

// Add merges b into a by each field's kind — the one merge every layer
// uses: shards into a store, cluster nodes into one logical model.
func (a Counters) Add(b Counters) Counters {
	for _, f := range fields {
		switch f.kind {
		case kindSum:
			*f.num(&a) += *f.num(&b)
		case kindMax:
			*f.num(&a) = max(*f.num(&a), *f.num(&b))
		case kindFold:
			x, y := f.lat(&a), f.lat(&b)
			x.Count += y.Count
			x.Sum += y.Sum
			x.Max = max(x.Max, y.Max)
			x.P50 = max(x.P50, y.P50)
			x.P90 = max(x.P90, y.P90)
			x.P99 = max(x.P99, y.P99)
			x.P999 = max(x.P999, y.P999)
		}
	}
	return a
}

// Sub returns the interval a−b of two snapshots of one source: sum fields
// and latency counts/sums subtract; gauges and percentiles, which have no
// interval meaning, keep a's value.
func (a Counters) Sub(b Counters) Counters {
	for _, f := range fields {
		switch f.kind {
		case kindSum:
			*f.num(&a) -= *f.num(&b)
		case kindFold:
			x, y := f.lat(&a), f.lat(&b)
			x.Count -= y.Count
			x.Sum -= y.Sum
		}
	}
	return a
}

// SetLatency overwrites the five latency summaries from one layer's
// per-op-class histograms.
func (c *Counters) SetLatency(set *latency.OpSet) {
	s := set.Snapshot()
	c.LatGet, c.LatGetBatch = s[latency.OpGet], s[latency.OpGetBatch]
	c.LatPut, c.LatPutBatch = s[latency.OpPut], s[latency.OpPutBatch]
	c.LatRMW = s[latency.OpRMW]
}

// Encode builds the STATS response payload: uint32 slot count | count
// little-endian int64s in table order.
func (c Counters) Encode() []byte {
	slots := c.slots()
	p := make([]byte, 4+8*len(slots))
	binary.LittleEndian.PutUint32(p, uint32(len(slots)))
	for i, s := range slots {
		binary.LittleEndian.PutUint64(p[4+8*i:], uint64(*s))
	}
	return p
}

// Decode parses a STATS response payload. The slot count must match this
// build's table exactly: peers agree on the table through wire.Version, so
// any other count is a malformed frame, not a version to tolerate.
func Decode(p []byte) (Counters, error) {
	var c Counters
	slots := c.slots()
	if len(p) != 4+8*len(slots) {
		return Counters{}, fmt.Errorf("stats: STATS payload wants %d bytes (%d slots), got %d", 4+8*len(slots), len(slots), len(p))
	}
	if n := binary.LittleEndian.Uint32(p); int(n) != len(slots) {
		return Counters{}, fmt.Errorf("stats: STATS payload declares %d slots, want %d", n, len(slots))
	}
	for i, s := range slots {
		*s = int64(binary.LittleEndian.Uint64(p[4+8*i:]))
	}
	return c, nil
}
