package kv

import (
	"context"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/bptree"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/lsm"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// shard is what the sharded store needs of one partition's engine. The
// method names are the hybrid log's own, so *faster.Store satisfies all of
// it but the session constructor.
type shard interface {
	newSession() (shardSession, error)
	Checkpoint() error
	Stats() stats.Counters
	// StalenessBound is the bound the vector clock runs under; a
	// clock-free engine reports -1.
	StalenessBound() int64
	// Resident: see Store.Resident. Only the hybrid log can say yes.
	Resident() bool
	// batchCalls counts the getAt / putAt calls that reached the engine.
	batchCalls() (gets, puts int64)
	Close() error
}

// shardSession is one worker's handle on one shard. The batch calls are
// index-addressed: they serve keys[i] for each i in idxs straight from and
// into the caller's i-th slot, so the sharded session hands every shard
// its group of positions without copying keys or values itself.
type shardSession interface {
	GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error)
	Peek(key uint64, dst []byte) (bool, error)
	Put(key uint64, val []byte) error
	Delete(key uint64) error
	RMW(key uint64, fn func(cur []byte, exists bool) bool) error
	Prefetch(key uint64) (bool, error)
	// getAt reads keys[i] into vals[i×ValueSize:] and found[i] for each i
	// in idxs, zeroing the slot of a missing key — or, with create set,
	// creating it (see Creator).
	getAt(ctx context.Context, keys []uint64, idxs []int, vals []byte, found []bool, create func(key uint64, val []byte)) error
	// putAt upserts keys[i] = vals[i×ValueSize:] for each i in idxs.
	putAt(keys []uint64, idxs []int, vals []byte) error
	Close()
}

// --- hybrid log ---

// batchCounter counts a shard's native batch calls, all sessions together.
type batchCounter struct{ batchGets, batchPuts atomic.Int64 }

func (b *batchCounter) batchCalls() (gets, puts int64) {
	return b.batchGets.Load(), b.batchPuts.Load()
}

// fasterShard adapts one hybrid-log store.
type fasterShard struct {
	*faster.Store
	batchCounter
}

func (f *fasterShard) newSession() (shardSession, error) {
	s, err := f.Store.NewSession()
	if err != nil {
		return nil, err
	}
	return &fasterSession{Session: s, sh: f}, nil
}

// fasterSession batches as one engine pass over the group's positions,
// straight from and into the caller's slots; every clocked read in it stays
// its own token acquisition, and a key it creates is appended in its turn
// (see faster.Session.GetBatchAt).
type fasterSession struct {
	*faster.Session
	sh *fasterShard
}

func (s *fasterSession) getAt(ctx context.Context, keys []uint64, idxs []int, vals []byte, found []bool, create func(uint64, []byte)) error {
	s.sh.batchGets.Add(1)
	return s.GetBatchAt(ctx, keys, idxs, vals, found, create)
}

func (s *fasterSession) putAt(keys []uint64, idxs []int, vals []byte) error {
	s.sh.batchPuts.Add(1)
	return s.PutBatchAt(keys, idxs, vals)
}

// --- clock-free engines (LSM-tree, B+tree) ---

// nativeSession is the session surface *lsm.Session and *bptree.Session
// share, batch entry points included.
type nativeSession interface {
	Get(key uint64, dst []byte) (bool, error)
	Put(key uint64, val []byte) error
	Delete(key uint64) error
	Prefetch(key uint64) (bool, error)
	GetBatch(keys []uint64, vals []byte, found []bool) error
	PutBatch(keys []uint64, vals []byte) error
	Close()
}

// clockFreeShard adapts one LSM or B+tree store. The engines count only
// IO, so the operation counters live here; they have no vector clock, so
// the bound is always -1.
type clockFreeShard struct {
	vs         int
	newSess    func() (nativeSession, error)
	checkpoint func() error
	ioStats    func() (memHits, diskReads, flushed int64)
	closeFn    func() error

	gets, puts, deletes, rmws atomic.Int64 // per key
	batchCounter
}

// lsmShard adapts an LSM store: Checkpoint is Flush (memtable + WAL to
// sorted tables); block-cache stats map to mem-hit and disk-read counters.
func lsmShard(s *lsm.Store) *clockFreeShard {
	return &clockFreeShard{
		vs:         s.ValueSize(),
		newSess:    func() (nativeSession, error) { return s.NewSession() },
		checkpoint: s.Flush,
		ioStats: func() (int64, int64, int64) {
			hits, misses := s.CacheStats()
			return hits, misses, 0
		},
		closeFn: s.Close,
	}
}

// bptreeShard adapts a B+tree store: Checkpoint is Sync (dirty pages +
// metadata to the file); pager stats map to mem-hit, disk-read, and
// flushed-page counters.
func bptreeShard(s *bptree.Store) *clockFreeShard {
	return &clockFreeShard{
		vs:         s.ValueSize(),
		newSess:    func() (nativeSession, error) { return s.NewSession() },
		checkpoint: s.Sync,
		ioStats: func() (int64, int64, int64) {
			reads, writes, hits := s.IOStats()
			return hits, reads, writes
		},
		closeFn: s.Close,
	}
}

func (c *clockFreeShard) newSession() (shardSession, error) {
	ns, err := c.newSess()
	if err != nil {
		return nil, err
	}
	return &clockFreeSession{st: c, ns: ns, buf: make([]byte, c.vs)}, nil
}

func (c *clockFreeShard) Checkpoint() error     { return c.checkpoint() }
func (c *clockFreeShard) StalenessBound() int64 { return -1 }
func (c *clockFreeShard) Resident() bool        { return false }
func (c *clockFreeShard) Close() error          { return c.closeFn() }

func (c *clockFreeShard) Stats() stats.Counters {
	memHits, diskReads, flushed := c.ioStats()
	return stats.Counters{
		Gets: c.gets.Load(), Puts: c.puts.Load(),
		RMWs: c.rmws.Load(), Deletes: c.deletes.Load(),
		MemHits: memHits, DiskReads: diskReads, FlushedPages: flushed,
	}
}

// clockFreeSession batches as gather → one native batch call → scatter,
// so a batch costs the engine one lock acquisition (and, for writes, one
// WAL record) per shard instead of one per key.
type clockFreeSession struct {
	st  *clockFreeShard
	ns  nativeSession
	buf []byte // RMW staging, one value

	// Reusable gather buffers.
	keys []uint64
	vals []byte
	fnd  []bool
}

// GetCtx ignores ctx: a clock-free read never waits.
func (s *clockFreeSession) GetCtx(_ context.Context, key uint64, dst []byte) (bool, error) {
	s.st.gets.Add(1)
	return s.ns.Get(key, dst)
}

// Peek is a plain read — without a clock there are no consistency effects
// to skip — left out of Gets as on the hybrid log.
func (s *clockFreeSession) Peek(key uint64, dst []byte) (bool, error) {
	return s.ns.Get(key, dst)
}

func (s *clockFreeSession) Put(key uint64, val []byte) error {
	s.st.puts.Add(1)
	return s.ns.Put(key, val)
}

func (s *clockFreeSession) Delete(key uint64) error {
	s.st.deletes.Add(1)
	return s.ns.Delete(key)
}

// RMW reads, applies fn, and writes back. Unlike the hybrid log's
// in-storage RMW this is not atomic across sessions; concurrent updaters
// of one key should batch their gradients the way the trainers do.
func (s *clockFreeSession) RMW(key uint64, fn func(cur []byte, exists bool) bool) error {
	s.st.rmws.Add(1)
	found, err := s.ns.Get(key, s.buf)
	if err != nil {
		return err
	}
	if !found {
		clear(s.buf)
	}
	if !fn(s.buf, found) {
		return nil
	}
	return s.ns.Put(key, s.buf)
}

func (s *clockFreeSession) Prefetch(key uint64) (bool, error) { return s.ns.Prefetch(key) }
func (s *clockFreeSession) Close()                            { s.ns.Close() }

// gather fills the key list and sizes the staging buffers for idxs.
func (s *clockFreeSession) gather(keys []uint64, idxs []int) {
	s.keys = s.keys[:0]
	for _, i := range idxs {
		s.keys = append(s.keys, keys[i])
	}
	s.vals = util.Grow(s.vals, len(idxs)*s.st.vs)
	s.fnd = util.Grow(s.fnd, len(idxs))
}

// getAt creates a missing key, when asked to, by a write after the batch
// read. Like RMW that is not atomic across sessions; racing creators store
// the same first value as long as create is a function of the key alone.
func (s *clockFreeSession) getAt(_ context.Context, keys []uint64, idxs []int, vals []byte, found []bool, create func(uint64, []byte)) error {
	vs := s.st.vs
	s.gather(keys, idxs)
	sv, sf := s.vals, s.fnd
	s.st.batchGets.Add(1)
	s.st.gets.Add(int64(len(idxs)))
	if err := s.ns.GetBatch(s.keys, sv, sf); err != nil {
		return err
	}
	for j, i := range idxs {
		slot := vals[i*vs : (i+1)*vs]
		if found[i] = sf[j]; sf[j] {
			copy(slot, sv[j*vs:(j+1)*vs])
			continue
		}
		clear(slot)
		if create != nil {
			create(keys[i], slot)
			if err := s.Put(keys[i], slot); err != nil {
				return err
			}
			found[i] = true
		}
	}
	return nil
}

func (s *clockFreeSession) putAt(keys []uint64, idxs []int, vals []byte) error {
	vs := s.st.vs
	s.gather(keys, idxs)
	sv := s.vals
	for j, i := range idxs {
		copy(sv[j*vs:(j+1)*vs], vals[i*vs:(i+1)*vs])
	}
	s.st.batchPuts.Add(1)
	s.st.puts.Add(int64(len(idxs)))
	return s.ns.PutBatch(s.keys, sv)
}
