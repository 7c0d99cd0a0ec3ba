// Package hotcache is the staleness-aware hot tier behind MLKV's
// application-side embedding cache (Figure 5(b)) and the server's shared
// per-model cache: a sharded LRU whose entries are stamped with the value
// of a write clock at fill time. A read is served from the tier only when
// the entry is provably within the caller's staleness bound — always
// under ASP, never under BSP, and only while at most `bound` writes have
// landed since the fill under a finite SSP bound — so the tier can sit in
// front of a bounded-staleness store without weakening the guarantee the
// bound spells out.
//
// The Cache owns the write clock, so the whole protocol is stated here and
// its two sites only call it. A reader takes the clock (Now, or Sweep for a
// batch), consults under that stamp, reads the store on a miss and Fills
// with the stamp it took before the read: writes racing the read only widen
// the entry's apparent gap, so admissibility stays conservative. A writer
// calls the store first, then Write/WriteBatch (the new value is at hand:
// tick and write through) or Drop (it is not — a storage-side RMW, a
// delete: tick and invalidate). A Drop leaves its tick on the key's shard,
// and a Fill stamped before it is refused: a read that began before the
// update cannot land its pre-update value after the invalidation.
//
// The tier is generic over the element type so the same structure serves
// raw value bytes (kv's sharded store with ShardedConfig.CacheEntries:
// every local table and the server) and float32 embeddings (the remote
// driver's client-side tier). Entries recycle in place once a shard
// reaches capacity, so the steady-state hot path — hit, refresh, or
// eviction-reusing fill — performs no allocation.
package hotcache

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// BoundAsync mirrors faster.BoundAsync: the ASP staleness bound
// (INT64_MAX), under which a cached entry is always admissible.
const BoundAsync = int64(math.MaxInt64)

// nShards spreads lock contention; must be a power of two.
const nShards = 16

// Stats is a snapshot of the tier's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// AddTo adds the tier's counters to c; tiers in front of the same store
// (client-side and server-side) sum into one view.
func (s Stats) AddTo(c *stats.Counters) {
	c.CacheHits += s.Hits
	c.CacheMisses += s.Misses
	c.CacheEvictions += s.Evictions
}

// Admissible reports whether an entry whose clock stamp trails the
// current write clock by gap may be served under bound. The rule encodes
// the consistency ladder: a non-blocking bound (ASP, or the clock disabled
// below zero) has no staleness contract, so the tier behaves like any cache
// and admits everything; BSP (bound 0) requires every read to synchronize
// through the store, so nothing is admissible; a finite SSP bound admits an
// entry while no more than bound writes have landed since its fill — a
// conservative table-wide over-count of the record's own staleness, so a
// served value is never more than bound versions behind.
func Admissible(bound, gap int64) bool {
	switch {
	case bound < 0 || bound == BoundAsync:
		return true
	case bound == 0:
		return false
	default:
		return gap <= bound
	}
}

// Cache is one staleness-aware hot tier over fixed-length []T values.
// All methods are safe for concurrent use.
type Cache[T any] struct {
	shards [nShards]shard[T]
	valLen int

	// clock counts key writes through the tier (Write, WriteBatch, Drop).
	// Entries are stamped with it; the gap between the current clock and an
	// entry's stamp bounds from above how many versions stale the entry can
	// be, which is what makes a cached read admissible under a finite bound.
	clock atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// entry is one cached value on a shard's intrusive LRU list. Evicted
// entries are reused for the incoming key, so a full shard churns with
// zero allocation.
type entry[T any] struct {
	key        uint64
	clock      int64
	val        []T
	prev, next *entry[T]
}

type shard[T any] struct {
	mu      sync.Mutex
	cap     int
	dropped int64 // tick of the shard's latest Drop; a Fill stamped before it is refused
	items   map[uint64]*entry[T]
	head    *entry[T] // most recently used
	tail    *entry[T] // least recently used
}

// New builds a tier holding up to capacity values of valLen elements,
// spread over 16 shards.
func New[T any](capacity, valLen int) *Cache[T] {
	perShard := capacity / nShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[T]{valLen: valLen}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].items = make(map[uint64]*entry[T], perShard)
	}
	return c
}

func (c *Cache[T]) shardOf(key uint64) *shard[T] {
	return &c.shards[util.Mix64(key)&(nShards-1)]
}

// Now returns the write clock: the stamp a reader takes before it consults
// the tier and reads the store, and hands back to Fill.
func (c *Cache[T]) Now() int64 { return c.clock.Load() }

// Get copies the cached value for key into dst if an entry exists and is
// admissible: its clock stamp must trail now by no more than bound allows
// (see Admissible). An inadmissible or absent entry counts as a miss. A
// dst of the wrong length never hits.
func (c *Cache[T]) Get(key uint64, dst []T, now, bound int64) bool {
	if len(dst) != c.valLen {
		return false
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.items[key]
	if !ok || !Admissible(bound, now-e.clock) {
		sh.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	copy(dst, e.val)
	sh.moveToFront(e)
	sh.mu.Unlock()
	c.hits.Add(1)
	return true
}

// Sweep is the batch consult: it takes the clock once, copies every
// admissible key's value into its slot of dst (len(keys) values) and
// appends the rest — position in keys, and key — to idx[:0] and miss[:0] in
// the caller's order, so a blocking bound's ascending-key rule survives the
// compaction. The stamp is the one every Fill of this batch's misses carries.
func (c *Cache[T]) Sweep(keys []uint64, dst []T, bound int64, idx []int, miss []uint64) (stamp int64, _ []int, _ []uint64) {
	stamp = c.clock.Load()
	idx, miss = idx[:0], miss[:0]
	for i, k := range keys {
		if !c.Get(k, dst[i*c.valLen:(i+1)*c.valLen], stamp, bound) {
			idx = append(idx, i)
			miss = append(miss, k)
		}
	}
	return stamp, idx, miss
}

// Fill is the read-side insert: val is what a reader found in the store
// after taking stamp. A stamp older than the shard's latest Drop is refused
// — the read may predate the update that dropped the key — and so is one
// older than the resident entry's (see put).
func (c *Cache[T]) Fill(key uint64, val []T, stamp int64) { c.put(key, val, stamp, true) }

// Write is the write-through of a value the caller just stored: it ticks
// the clock and leaves val in the tier under that tick, so the tier never
// lags a Put. Its stamp is newer than any in-flight reader's, so the drop
// rule does not apply to it.
func (c *Cache[T]) Write(key uint64, val []T) { c.put(key, val, c.clock.Add(1), false) }

// WriteBatch writes len(keys) just-stored values (vals, len(keys) values)
// through under the batch's one clock advance.
func (c *Cache[T]) WriteBatch(keys []uint64, vals []T) {
	stamp := c.clock.Add(int64(len(keys)))
	for i, k := range keys {
		c.put(k, vals[i*c.valLen:(i+1)*c.valLen], stamp, false)
	}
}

// put inserts or refreshes key's value, stamped with stamp. A refresh
// carrying an older stamp than the resident entry is dropped: a stale
// read-side fill racing a write-through must not regress the entry, whose
// invariant is "val reflects the store at or after its stamp". Values of
// the wrong length are ignored.
func (c *Cache[T]) put(key uint64, val []T, stamp int64, fill bool) {
	if len(val) != c.valLen {
		return
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fill && stamp < sh.dropped {
		return
	}
	if e, ok := sh.items[key]; ok {
		if stamp >= e.clock {
			copy(e.val, val)
			e.clock = stamp
			sh.moveToFront(e)
		}
		return
	}
	var e *entry[T]
	if len(sh.items) >= sh.cap {
		// Recycle the LRU tail in place for the incoming key.
		e = sh.tail
		sh.unlink(e)
		delete(sh.items, e.key)
		c.evictions.Add(1)
	} else {
		e = &entry[T]{val: make([]T, c.valLen)}
	}
	e.key = key
	e.clock = stamp
	copy(e.val, val)
	sh.items[key] = e
	sh.pushFront(e)
}

// Drop ticks the clock and removes key's entry: the store holds a value the
// caller does not (a storage-side RMW, a delete). The tick stays on the
// shard — one int64, no tombstone entry — and refuses every later Fill
// stamped before it.
func (c *Cache[T]) Drop(key uint64) {
	tick := c.clock.Add(1)
	sh := c.shardOf(key)
	sh.mu.Lock()
	sh.dropped = max(sh.dropped, tick)
	if e, ok := sh.items[key]; ok {
		sh.unlink(e)
		delete(sh.items, key)
	}
	sh.mu.Unlock()
}

// Len returns the number of resident entries.
func (c *Cache[T]) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].items)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache[T]) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load()}
}

func (sh *shard[T]) pushFront(e *entry[T]) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard[T]) unlink(e *entry[T]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard[T]) moveToFront(e *entry[T]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
