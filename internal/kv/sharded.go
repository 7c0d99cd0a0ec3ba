package kv

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/faster"
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
type shardedStore struct {
	shards []*faster.Store
	// batchGets and batchPuts count, per shard, the engine batch calls that
	// reach it, all sessions together (BatchCallReporter).
	batchGets, batchPuts []atomic.Int64
	name                 string
	vs                   int
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

// Stats merges every shard's counters.
func (w *shardedStore) Stats() stats.Counters {
	var sum stats.Counters
	for _, sh := range w.shards {
		sum = sum.Add(sh.Stats())
	}
	return sum
}

// BatchCallReporter is an optional Store extension counting the native
// engine-level batch calls the store has issued. It is the measurement
// behind the batch-amplification regression gate: one session GetBatch
// through a sharded store must reach the engine as at most Shards calls,
// never one call per key.
type BatchCallReporter interface {
	// BatchCalls returns the cumulative engine-level batch read and batch
	// write call counts.
	BatchCalls() (gets, puts int64)
}

// BatchCalls implements BatchCallReporter.
func (w *shardedStore) BatchCalls() (gets, puts int64) {
	for i := range w.shards {
		gets += w.batchGets[i].Load()
		puts += w.batchPuts[i].Load()
	}
	return gets, puts
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

// shardedSession is one worker's handle: one engine session per shard.
// During a parallel fan-out it drives its shards from several goroutines,
// but each shard's session is touched by exactly one of them, preserving
// the engine's single-goroutine session contract.
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
}

func (se *shardedSession) route(key uint64) *faster.Session {
	return se.ss[util.ShardOf(key, len(se.ss))]
}

// getAt reads keys[i] into vals[i×ValueSize:] and found[i] for each i in
// idxs as one pass of shard sh's engine, zeroing the slot of a missing key
// — or, with create set, creating it (see Creator). Like putAt it is
// index-addressed, straight from and into the caller's i-th slot, so the
// session hands every shard its group of positions without copying keys or
// values. Every clocked read in a pass stays its own token acquisition,
// and a key it creates is appended in its turn (see
// faster.Session.GetBatchAt).
func (se *shardedSession) getAt(ctx context.Context, sh int, keys []uint64, idxs []int, vals []byte, found []bool, create func(uint64, []byte)) error {
	se.st.batchGets[sh].Add(1)
	return se.ss[sh].GetBatchAt(ctx, keys, idxs, vals, found, create)
}

// putAt upserts keys[i] = vals[i×ValueSize:] for each i in idxs as one pass
// of shard sh's engine.
func (se *shardedSession) putAt(sh int, keys []uint64, idxs []int, vals []byte) error {
	se.st.batchPuts[sh].Add(1)
	return se.ss[sh].PutBatchAt(keys, idxs, vals)
}

func (se *shardedSession) Get(key uint64, dst []byte) (bool, error) {
	return se.route(key).GetCtx(context.Background(), key, dst)
}
func (se *shardedSession) GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	return se.route(key).GetCtx(ctx, key, dst)
}
func (se *shardedSession) Peek(key uint64, dst []byte) (bool, error) {
	return se.route(key).Peek(key, dst)
}
func (se *shardedSession) Put(key uint64, val []byte) error { return se.route(key).Put(key, val) }
func (se *shardedSession) Delete(key uint64) error          { return se.route(key).Delete(key) }
func (se *shardedSession) RMW(key uint64, fn func(cur []byte, exists bool) bool) error {
	return se.route(key).RMW(key, fn)
}

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

// GetBatchCtx groups keys by owning shard and runs the per-shard groups —
// in parallel once the store has spilled, overlapping disk reads and flush
// waits across shards (see fanOut).
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

// GetOrCreateBatchCtx implements Creator, with GetBatchCtx's routing.
func (se *shardedSession) GetOrCreateBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool, create func(uint64, []byte)) error {
	if faster.BlockingBound(se.st.StalenessBound()) {
		return se.inOrder(ctx, keys, vals, found, create)
	}
	return se.fanOut(batch{ctx: ctx, keys: keys, vals: vals, found: found, create: create})
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
// they need no ordering.
func (se *shardedSession) PutBatch(keys []uint64, vals []byte) error {
	return se.fanOut(batch{keys: keys, vals: vals, put: true})
}

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
// first error by shard order is returned.
func (se *shardedSession) fanOut(b batch) error {
	se.cur = b
	defer func() { se.cur = batch{} }() // drop the caller's buffers
	n := len(se.ss)
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
