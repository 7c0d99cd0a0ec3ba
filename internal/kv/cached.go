package kv

import (
	"context"
	"fmt"

	"github.com/llm-db/mlkv-go/internal/hotcache"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// WrapCached layers a staleness-aware hot tier over a byte-level store:
// the tier of every local table opened with CacheEntries (core.OpenTable
// wraps the store it opens) and the shared per-model cache mlkv-server
// enables with -cache. All sessions of the wrapped store share one tier
// and its write clock; every write through the wrapper advances the clock
// and updates (Put) or invalidates (Delete, RMW) the tier, so an entry is
// never older than its stamp claims. Reads consult the tier first and
// serve a hit only when the entry is admissible under the store's current
// staleness bound (see hotcache.Admissible); with the clock off the tier
// is coherent as long as every writer goes through this wrapper. The
// protocol itself is hotcache.Cache's.
//
// The tier earns its keep by saving a disk read. Where it can save none,
// reads bypass it — neither consulted nor filled — while writes keep it
// coherent all the same (see readTier).
//
// Peek and Lookahead bypass the tier: evaluation reads stay
// exact and prefetch targets the engine's own memory.
func WrapCached(inner Store, entries int) Store {
	return &cachedStore{
		inner: inner,
		cache: hotcache.New[byte](entries, inner.ValueSize()),
	}
}

type cachedStore struct {
	inner Store
	cache *hotcache.Cache[byte]
}

func (w *cachedStore) ValueSize() int        { return w.inner.ValueSize() }
func (w *cachedStore) Name() string          { return w.inner.Name() }
func (w *cachedStore) Shards() int           { return w.inner.Shards() }
func (w *cachedStore) StalenessBound() int64 { return w.inner.StalenessBound() }
func (w *cachedStore) Resident() bool        { return w.inner.Resident() }
func (w *cachedStore) Checkpoint() error     { return w.inner.Checkpoint() }
func (w *cachedStore) Close() error          { return w.inner.Close() }

// Stats adds the tier's counters to the wrapped store's.
func (w *cachedStore) Stats() stats.Counters {
	c := w.inner.Stats()
	w.cache.Stats().AddTo(&c)
	return c
}

// readTier returns the store's staleness bound and whether a read under it
// goes through the tier. Two cases keep reads on the engine: BSP, where
// every read must synchronize through the store, and a resident store,
// whose log memory already is the cache — a lookup there costs more than
// the read it would save. Writes update or invalidate the tier regardless,
// so the first read after the store spills finds no stale entry.
func (w *cachedStore) readTier() (bound int64, consult bool) {
	bound = w.inner.StalenessBound()
	return bound, bound != 0 && !w.inner.Resident()
}

func (w *cachedStore) NewSession() (Session, error) {
	s, err := w.inner.NewSession()
	if err != nil {
		return nil, err
	}
	return &cachedSession{w: w, inner: s, vs: w.inner.ValueSize()}, nil
}

// cachedSession is one worker's handle through the tier. Like every
// kv.Session it is single-goroutine; the shared tier and clock are safe
// for concurrent sessions.
type cachedSession struct {
	w     *cachedStore
	inner Session
	vs    int

	// one and oneFound hold Get's batch of one.
	one      [1]uint64
	oneFound [1]bool
	// Reusable batch scratch: hot-tier miss positions, their compacted
	// keys, and the fetch staging the engine reads into.
	missIdx    []int
	fetchKeys  []uint64
	fetchVals  []byte
	fetchFound []bool
}

func (s *cachedSession) Close()                               { s.inner.Close() }
func (s *cachedSession) Lookahead(keys []uint64) (int, error) { return s.inner.Lookahead(keys) }

// Peek bypasses the tier: evaluation reads stay exact.
func (s *cachedSession) Peek(key uint64, dst []byte) (bool, error) { return s.inner.Peek(key, dst) }

// Get is the one-key case of GetBatchCtx, so the tier consult and fill
// exist once.
func (s *cachedSession) Get(key uint64, dst []byte) (bool, error) {
	s.one[0] = key
	err := SessionGetBatchCtx(context.Background(), s, s.vs, s.one[:], dst, s.oneFound[:])
	return err == nil && s.oneFound[0], err
}

func (s *cachedSession) Put(key uint64, val []byte) error {
	if err := s.inner.Put(key, val); err != nil {
		return err
	}
	s.w.cache.Write(key, val)
	return nil
}

func (s *cachedSession) Delete(key uint64) error {
	if err := s.inner.Delete(key); err != nil {
		return err
	}
	s.w.cache.Drop(key)
	return nil
}

// RMW materializes the new value inside the engine, so the tier's copy
// is dropped rather than updated.
func (s *cachedSession) RMW(key uint64, fn func(cur []byte, exists bool) bool) error {
	if err := s.inner.RMW(key, fn); err != nil {
		return err
	}
	s.w.cache.Drop(key)
	return nil
}

// GetBatchCtx runs a tier sweep first, then one engine batch over the
// compacted miss set. The miss subset preserves the caller's key order,
// so the ordering rule blocking bounds rely on is unaffected.
func (s *cachedSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return s.GetOrCreateBatchCtx(ctx, keys, vals, found, nil)
}

// GetOrCreateBatchCtx implements Creator when the wrapped store's sessions
// do: GetBatchCtx, with the keys the engine creates filled into the tier
// like the ones it reads.
func (s *cachedSession) GetOrCreateBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool, create func(uint64, []byte)) error {
	bound, consult := s.w.readTier()
	if !consult || len(keys) == 0 {
		return s.innerGet(ctx, keys, vals, found, create)
	}
	c, vs := s.w.cache, s.vs
	var stamp int64
	stamp, s.missIdx, s.fetchKeys = c.Sweep(keys, vals[:len(keys)*vs], bound, s.missIdx, s.fetchKeys)
	for i := range keys {
		found[i] = true // a hit; the misses are overwritten below
	}
	n := len(s.fetchKeys)
	if n == 0 {
		return nil
	}
	s.fetchVals, s.fetchFound = util.Grow(s.fetchVals, n*vs), util.Grow(s.fetchFound, n)
	if err := s.innerGet(ctx, s.fetchKeys, s.fetchVals, s.fetchFound, create); err != nil {
		return err
	}
	for j, i := range s.missIdx {
		slot := vals[i*vs : (i+1)*vs]
		copy(slot, s.fetchVals[j*vs:(j+1)*vs])
		found[i] = s.fetchFound[j]
		if found[i] {
			c.Fill(keys[i], slot, stamp)
		}
	}
	return nil
}

// innerGet is the wrapped session's batch read, read-or-create when create
// is set.
func (s *cachedSession) innerGet(ctx context.Context, keys []uint64, vals []byte, found []bool, create func(uint64, []byte)) error {
	if create == nil {
		return s.inner.GetBatchCtx(ctx, keys, vals, found)
	}
	c, ok := s.inner.(Creator)
	if !ok {
		return fmt.Errorf("kv: %s sessions cannot create keys", s.w.inner.Name())
	}
	return c.GetOrCreateBatchCtx(ctx, keys, vals, found, create)
}

// PutBatch does the engine write first, then a write-through of every key
// stamped with the batch's clock advance.
func (s *cachedSession) PutBatch(keys []uint64, vals []byte) error {
	if err := s.inner.PutBatch(keys, vals); err != nil {
		return err
	}
	s.w.cache.WriteBatch(keys, vals)
	return nil
}
