package kv

import (
	"context"
	"errors"
	"sync"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/hotcache"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// shardedStore hash-partitions the key space across independent hybrid-log
// instances (each shard has its own log, hash index, epoch domain, and
// background flusher). Single-key operations route to the
// shard util.ShardOf assigns the key — a constant mix distinct from the
// in-shard index hash, so partitioning and bucket placement stay
// uncorrelated. One shard is the same code with one group: 1-vs-N
// comparisons measure sharding alone.
//
// With ShardedConfig.CacheEntries set the store also owns a
// staleness-aware hot tier (hotcache.Cache), shared by all its sessions:
// the tier of every local table opened with CacheEntries and the per-model
// cache mlkv-server enables with -cache. Every write advances the tier's
// clock and updates (Put, PutBatch) or invalidates (Delete, RMW) the key's
// entry, so an entry is never older than its stamp claims. Reads consult
// the tier first and serve a hit only when the entry is admissible under
// the store's staleness bound (see hotcache.Admissible). The tier earns
// its keep by saving a disk read; where it can save none, reads bypass it
// while writes keep it coherent all the same (see readTier). Peek and
// Lookahead always bypass it: evaluation reads stay exact and prefetch
// targets the engine's own memory.
type shardedStore struct {
	shards []*faster.Store
	// tier is the hot tier, nil without CacheEntries.
	tier *hotcache.Cache[byte]
	// onPass, when set, is told of every engine batch call and its shard:
	// the batch-amplification tests count passes through it. It is a hook,
	// not a counter, so that no session pays for a shared write per call.
	onPass func(shard int, put bool)
	name   string
	vs     int
	// pinned, when set, answers Resident in place of the shards, so that a
	// test can hold fanOut in either of its modes.
	pinned *bool
}

func (w *shardedStore) ValueSize() int { return w.vs }
func (w *shardedStore) Name() string   { return w.name }
func (w *shardedStore) Shards() int    { return len(w.shards) }

// StalenessBound reports the bound all shards share.
func (w *shardedStore) StalenessBound() int64 { return w.shards[0].StalenessBound() }

// Resident reports whether every shard is still wholly in memory.
func (w *shardedStore) Resident() bool {
	if w.pinned != nil {
		return *w.pinned
	}
	for _, sh := range w.shards {
		if !sh.Resident() {
			return false
		}
	}
	return true
}

// Close closes every shard, reporting every failure.
func (w *shardedStore) Close() error {
	errs := make([]error, len(w.shards))
	for i, sh := range w.shards {
		errs[i] = sh.Close()
	}
	return errors.Join(errs...)
}

// Checkpoint makes every shard durable, in parallel, reporting every
// failing shard.
func (w *shardedStore) Checkpoint() error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.shards))
	for i, sh := range w.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = sh.Checkpoint()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats merges every shard's counters and adds the tier's.
func (w *shardedStore) Stats() stats.Counters {
	var sum stats.Counters
	for _, sh := range w.shards {
		sum = sum.Add(sh.Stats())
	}
	if w.tier != nil {
		w.tier.Stats().AddTo(&sum)
	}
	return sum
}

// readTier returns the store's staleness bound and whether a read under it
// goes through the tier. Besides a store with no tier, two cases keep reads
// on the engine: BSP, where every read must synchronize through the store,
// and a resident store, whose log memory already is the cache — a lookup
// there costs more than the read it would save. Writes update or
// invalidate the tier regardless, so the first read after the store spills
// finds no stale entry.
func (w *shardedStore) readTier() (bound int64, consult bool) {
	bound = w.StalenessBound()
	return bound, w.tier != nil && bound != 0 && !w.Resident()
}

func (w *shardedStore) NewSession() (Session, error) {
	ss := make([]*faster.Session, len(w.shards))
	for i, sh := range w.shards {
		s, err := sh.NewSession()
		if err != nil {
			for _, prev := range ss[:i] {
				prev.Close()
			}
			return nil, err
		}
		ss[i] = s
	}
	se := &shardedSession{
		st:     w,
		ss:     ss,
		groups: make([][]int, len(ss)),
		errs:   make([]error, len(ss)),
	}
	se.createSerial = se.createLocked
	return se, nil
}

// shardedSession is one worker's handle: one engine session per shard,
// in front of them the store's hot tier when it has one. During a parallel
// fan-out it drives its shards from several goroutines, but each shard's
// session is touched by exactly one of them, preserving the engine's
// single-goroutine session contract; the shared tier is safe for
// concurrent sessions.
type shardedSession struct {
	st     *shardedStore
	ss     []*faster.Session
	groups [][]int        // reusable per-shard index groups for batches
	run    []int          // reusable run of an in-order batch
	errs   []error        // reusable per-shard fan-out results
	cur    batch          // the batch being fanned out
	wg     sync.WaitGroup // joins a parallel fan-out

	// createSerial is createLocked, bound once; createMu serializes the
	// parked batch's create calls across a parallel fan-out's goroutines.
	createSerial func(uint64, []byte)
	createMu     sync.Mutex

	// one and oneFound hold a single-key op's batch of one.
	one      [1]uint64
	oneFound [1]bool
	// Hot-tier batch scratch: the positions the tier missed, their
	// compacted keys, and the fetch staging the engine reads into.
	missIdx    []int
	fetchKeys  []uint64
	fetchVals  []byte
	fetchFound []bool
}

func (se *shardedSession) route(key uint64) *faster.Session {
	return se.ss[util.ShardOf(key, len(se.ss))]
}

// getAt reads keys[i] into vals[i×ValueSize:] and found[i] for each i in
// idxs as one pass of shard sh's engine, zeroing the slot of a missing key
// — or, with create set, creating it (see Session.GetOrCreateBatchCtx).
// Like putAt it is index-addressed, straight from and into the caller's
// i-th slot, so the session hands every shard its group of positions
// without copying keys or values. Every clocked read in a pass stays its
// own token acquisition, and a key it creates is appended in its turn (see
// faster.Session.GetBatchAt).
func (se *shardedSession) getAt(ctx context.Context, sh int, keys []uint64, idxs []int, vals []byte, found []bool, create func(uint64, []byte)) error {
	if f := se.st.onPass; f != nil {
		f(sh, false)
	}
	return se.ss[sh].GetBatchAt(ctx, keys, idxs, vals, found, create)
}

// putAt upserts keys[i] = vals[i×ValueSize:] for each i in idxs as one pass
// of shard sh's engine.
func (se *shardedSession) putAt(sh int, keys []uint64, idxs []int, vals []byte) error {
	if f := se.st.onPass; f != nil {
		f(sh, true)
	}
	return se.ss[sh].PutBatchAt(keys, idxs, vals)
}

// Get is GetBatchCtx's one-key case, so the tier consult and fill exist
// once.
func (se *shardedSession) Get(key uint64, dst []byte) (bool, error) {
	if len(dst) != se.st.vs {
		return false, faster.ErrValueSize
	}
	se.one[0] = key
	err := se.GetOrCreateBatchCtx(context.Background(), se.one[:], dst, se.oneFound[:], nil)
	return err == nil && se.oneFound[0], err
}

// Put is PutBatch's one-key case.
func (se *shardedSession) Put(key uint64, val []byte) error {
	se.one[0] = key
	return se.PutBatch(se.one[:], val)
}

// Peek bypasses the tier: evaluation reads stay exact.
func (se *shardedSession) Peek(key uint64, dst []byte) (bool, error) {
	return se.route(key).Peek(key, dst)
}

func (se *shardedSession) Delete(key uint64) error {
	if err := se.route(key).Delete(key); err != nil {
		return err
	}
	se.dropTier(key)
	return nil
}

// RMW materializes the new value inside the engine, so the tier's copy is
// dropped rather than updated.
func (se *shardedSession) RMW(key uint64, fn func(cur []byte, exists bool) bool) error {
	if err := se.route(key).RMW(key, fn); err != nil {
		return err
	}
	se.dropTier(key)
	return nil
}

// dropTier invalidates key's tier entry after a write whose value the
// session does not hold.
func (se *shardedSession) dropTier(key uint64) {
	if se.st.tier != nil {
		se.st.tier.Drop(key)
	}
}

// Lookahead bypasses the tier: it moves records toward the engine's own
// memory.
func (se *shardedSession) Lookahead(keys []uint64) (int, error) {
	n := 0
	for _, k := range keys {
		ok, err := se.route(k).Prefetch(k)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

func (se *shardedSession) Close() {
	for _, s := range se.ss {
		s.Close()
	}
}

// batchFanoutMin is the batch size below which cross-shard batches run
// serially even on a spilled store: goroutine spawn costs more than the
// handful of routed operations it would overlap.
const batchFanoutMin = 16

// GetBatchCtx serves what it can from the hot tier, then groups the rest
// by owning shard and runs the per-shard groups — in parallel once the
// store has spilled, overlapping disk reads and flush waits across shards
// (see fanOut).
//
// The blocking-bound ordering rule lives here: under a blocking staleness
// bound (BSP or finite SSP) a clocked read is a token acquisition that
// only the matching Put releases, so two sessions acquiring different
// shards in parallel could each hold a key the other is blocked on. Such
// a batch runs serially in the caller's key order instead (see inOrder);
// callers that may block pass unique keys in ascending order, which keeps
// the cross-session wait graph acyclic exactly as on the scalar path. A
// missing key that must exist before the next is read is created in its
// turn by GetOrCreateBatchCtx, never repaired after the whole batch.
func (se *shardedSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return se.GetOrCreateBatchCtx(ctx, keys, vals, found, nil)
}

// GetOrCreateBatchCtx is GetBatchCtx with read-or-create: a tier sweep
// first, then one engine batch over the compacted miss set, whose keys —
// read or created — fill the tier. The miss subset preserves the caller's
// key order, so the ordering rule blocking bounds rely on is unaffected.
func (se *shardedSession) GetOrCreateBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool, create func(uint64, []byte)) error {
	bound, consult := se.st.readTier()
	if !consult || len(keys) == 0 {
		return se.engineGet(ctx, bound, keys, vals, found, create)
	}
	c, vs := se.st.tier, se.st.vs
	var stamp int64
	stamp, se.missIdx, se.fetchKeys = c.Sweep(keys, vals[:len(keys)*vs], bound, se.missIdx, se.fetchKeys)
	for i := range keys {
		found[i] = true // a hit; the misses are overwritten below
	}
	n := len(se.fetchKeys)
	if n == 0 {
		return nil
	}
	se.fetchVals, se.fetchFound = util.Grow(se.fetchVals, n*vs), util.Grow(se.fetchFound, n)
	if err := se.engineGet(ctx, bound, se.fetchKeys, se.fetchVals, se.fetchFound, create); err != nil {
		return err
	}
	for j, i := range se.missIdx {
		slot := vals[i*vs : (i+1)*vs]
		copy(slot, se.fetchVals[j*vs:(j+1)*vs])
		found[i] = se.fetchFound[j]
		if found[i] {
			c.Fill(keys[i], slot, stamp)
		}
	}
	return nil
}

// engineGet is the engine half of a batch read under bound: in the
// caller's key order under a blocking bound, fanned out otherwise.
func (se *shardedSession) engineGet(ctx context.Context, bound int64, keys []uint64, vals []byte, found []bool, create func(uint64, []byte)) error {
	if faster.BlockingBound(bound) {
		return se.inOrder(ctx, keys, vals, found, create)
	}
	if len(keys) == 1 { // one key is one shard's group (see fanOut)
		return se.getAt(ctx, util.ShardOf(keys[0], len(se.ss)), keys, oneIdx[:], vals, found, create)
	}
	return se.fanOut(&batch{ctx: ctx, keys: keys, vals: vals, found: found, create: create})
}

// inOrder serves a batch in the caller's key order, one engine pass per run
// of consecutive keys that hash to the same shard: on one shard the whole
// batch is a single pass.
func (se *shardedSession) inOrder(ctx context.Context, keys []uint64, vals []byte, found []bool, create func(uint64, []byte)) error {
	n := len(se.ss)
	for i := 0; i < len(keys); {
		sh := util.ShardOf(keys[i], n)
		se.run = se.run[:0]
		for ; i < len(keys) && util.ShardOf(keys[i], n) == sh; i++ {
			se.run = append(se.run, i)
		}
		if err := se.getAt(ctx, sh, keys, se.run, vals, found, create); err != nil {
			return err
		}
	}
	return nil
}

// PutBatch fans out like GetBatchCtx; writes never wait on the bound, so
// they need no ordering. The engine write comes first, then a
// write-through of every key to the tier under the batch's clock advance.
func (se *shardedSession) PutBatch(keys []uint64, vals []byte) error {
	var err error
	if len(keys) == 1 { // one key is one shard's group (see fanOut)
		err = se.putAt(util.ShardOf(keys[0], len(se.ss)), keys, oneIdx[:], vals)
	} else {
		err = se.fanOut(&batch{keys: keys, vals: vals, put: true})
	}
	if err != nil {
		return err
	}
	if se.st.tier != nil {
		se.st.tier.WriteBatch(keys, vals)
	}
	return nil
}

// oneIdx is the position list of a one-key batch.
var oneIdx = [1]int{0}

// batch is one GetOrCreateBatchCtx or PutBatch call's arguments. fanOut
// parks it in the session rather than closing over it: a closure handed to
// goroutines escapes, which would cost the serial path a heap allocation
// per call.
type batch struct {
	ctx    context.Context
	keys   []uint64
	vals   []byte
	found  []bool
	create func(uint64, []byte)
	put    bool
}

// runGroup serves the parked batch's positions idxs on shard sh, creating
// absent keys with create.
func (se *shardedSession) runGroup(sh int, idxs []int, create func(uint64, []byte)) error {
	b := &se.cur
	if b.put {
		return se.putAt(sh, b.keys, idxs, b.vals)
	}
	return se.getAt(b.ctx, sh, b.keys, idxs, b.vals, b.found, create)
}

// runGroupAsync is runGroup as one goroutine of a parallel fan-out. fanOut
// starts it as a go statement, not a closure: a closure capturing fanOut's
// create variable would move it to the heap on every call, serial or not.
func (se *shardedSession) runGroupAsync(sh int, idxs []int, create func(uint64, []byte)) {
	defer se.wg.Done()
	se.errs[sh] = se.runGroup(sh, idxs, create)
}

// createLocked runs the parked batch's create under createMu. A caller's
// create is single-goroutine code — core's reuses one staging buffer per
// session — so a parallel fan-out hands its shards this instead: the reads
// still overlap, the creations take turns.
func (se *shardedSession) createLocked(key uint64, cur []byte) {
	se.createMu.Lock()
	defer se.createMu.Unlock()
	se.cur.create(key, cur)
}

// fanOut groups the positions of b's keys by owning shard into the
// session's reusable buffers and serves each non-empty group. What a
// goroutine per group buys is overlapped waiting — disk reads, flush
// back-pressure — so while the store is resident, when no group can wait
// on a page, the groups run one after another on the caller's goroutine;
// from the first eviction on, batches of batchFanoutMin keys or more run
// one goroutine per shard, with b.create serialized (createLocked). The
// first error by shard order is returned. A one-key batch — every
// single-key Get and Put — is one shard's group already, so its callers
// hand it to getAt or putAt and skip the grouping.
func (se *shardedSession) fanOut(b *batch) error {
	n := len(se.ss)
	se.cur = *b
	defer func() { se.cur = batch{} }() // drop the caller's buffers
	for sh := range se.groups {
		se.groups[sh] = se.groups[sh][:0]
	}
	for i, k := range b.keys {
		sh := util.ShardOf(k, n)
		se.groups[sh] = append(se.groups[sh], i)
	}
	parallel := n > 1 && len(b.keys) >= batchFanoutMin && !se.st.Resident()
	create := b.create
	if parallel && create != nil {
		create = se.createSerial
	}
	for sh, idxs := range se.groups {
		se.errs[sh] = nil
		if len(idxs) == 0 {
			continue
		}
		if !parallel {
			if err := se.runGroup(sh, idxs, create); err != nil {
				return err
			}
			continue
		}
		se.wg.Add(1)
		go se.runGroupAsync(sh, idxs, create)
	}
	se.wg.Wait()
	for _, err := range se.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
