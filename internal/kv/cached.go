package kv

import (
	"context"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/hotcache"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// WrapCached layers a staleness-aware hot tier over a byte-level store:
// the shared per-model cache mlkv-server enables with -cache, and the
// client-side tier mlkv-ycsb uses. All sessions of the wrapped store
// share one tier and one write clock; every write through the wrapper
// advances the clock and updates (Put) or invalidates (Delete, RMW) the
// tier, so an entry is never older than its stamp claims. Reads consult the
// tier first and serve a hit only when the entry is admissible under the
// store's current staleness bound (see hotcache.Admissible); for engines
// without a bound the tier is coherent as long as every writer goes
// through this wrapper.
//
// The tier earns its keep by saving a disk read or a round trip. Where it
// can save neither reads bypass it — neither consulted nor filled — while
// writes keep it coherent all the same (see readTier).
//
// Peek and Prefetch/Lookahead bypass the tier: evaluation reads stay
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
	clock atomic.Int64
}

func (w *cachedStore) ValueSize() int                  { return w.inner.ValueSize() }
func (w *cachedStore) Name() string                    { return w.inner.Name() }
func (w *cachedStore) Shards() int                     { return w.inner.Shards() }
func (w *cachedStore) StalenessBound() int64           { return w.inner.StalenessBound() }
func (w *cachedStore) SetStalenessBound(b int64) error { return w.inner.SetStalenessBound(b) }
func (w *cachedStore) Resident() bool                  { return w.inner.Resident() }
func (w *cachedStore) Checkpoint() error               { return w.inner.Checkpoint() }
func (w *cachedStore) Close() error                    { return w.inner.Close() }

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

	// Reusable batch scratch: hot-tier miss positions, their compacted
	// keys, and the fetch staging the engine reads into.
	missIdx    []int
	fetchKeys  []uint64
	fetchVals  []byte
	fetchFound []bool
}

func (s *cachedSession) Close()                               { s.inner.Close() }
func (s *cachedSession) Prefetch(key uint64) (bool, error)    { return s.inner.Prefetch(key) }
func (s *cachedSession) Lookahead(keys []uint64) (int, error) { return s.inner.Lookahead(keys) }

// Peek bypasses the tier: evaluation reads stay exact.
func (s *cachedSession) Peek(key uint64, dst []byte) (bool, error) { return s.inner.Peek(key, dst) }

func (s *cachedSession) Get(key uint64, dst []byte) (bool, error) {
	return s.GetCtx(context.Background(), key, dst)
}

// GetCtx puts the tier in front (unless readTier says otherwise): an
// admissible entry is served without touching the engine; a miss reads the
// engine and fills the tier with a conservative pre-read stamp.
func (s *cachedSession) GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	bound, consult := s.w.readTier()
	var now int64
	if consult {
		now = s.w.clock.Load()
		if s.w.cache.Get(key, dst, now, bound) {
			return true, nil
		}
	}
	found, err := s.inner.GetCtx(ctx, key, dst)
	if err != nil || !found {
		return found, err
	}
	if consult {
		s.w.cache.Put(key, dst, now)
	}
	return true, nil
}

func (s *cachedSession) Put(key uint64, val []byte) error {
	if err := s.inner.Put(key, val); err != nil {
		return err
	}
	s.w.cache.Put(key, val, s.w.clock.Add(1))
	return nil
}

func (s *cachedSession) Delete(key uint64) error {
	if err := s.inner.Delete(key); err != nil {
		return err
	}
	s.w.clock.Add(1)
	s.w.cache.Invalidate(key)
	return nil
}

// RMW materializes the new value inside the engine, so the tier's copy
// is dropped rather than updated.
func (s *cachedSession) RMW(key uint64, fn func(cur []byte, exists bool) bool) error {
	if err := s.inner.RMW(key, fn); err != nil {
		return err
	}
	s.w.clock.Add(1)
	s.w.cache.Invalidate(key)
	return nil
}

// GetBatchCtx runs a tier sweep first, then one engine batch over the
// compacted miss set. The miss subset preserves the caller's key order,
// so the ordering rule blocking bounds rely on is unaffected.
func (s *cachedSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	bound, consult := s.w.readTier()
	if !consult || len(keys) == 0 {
		return s.inner.GetBatchCtx(ctx, keys, vals, found)
	}
	now := s.w.clock.Load()
	s.missIdx = s.missIdx[:0]
	s.fetchKeys = s.fetchKeys[:0]
	for i, k := range keys {
		if s.w.cache.Get(k, vals[i*s.vs:(i+1)*s.vs], now, bound) {
			found[i] = true
			continue
		}
		s.missIdx = append(s.missIdx, i)
		s.fetchKeys = append(s.fetchKeys, k)
	}
	n := len(s.fetchKeys)
	if n == 0 {
		return nil
	}
	if cap(s.fetchVals) < n*s.vs {
		s.fetchVals = make([]byte, n*s.vs)
	}
	if cap(s.fetchFound) < n {
		s.fetchFound = make([]bool, n)
	}
	fv, ff := s.fetchVals[:n*s.vs], s.fetchFound[:n]
	if err := s.inner.GetBatchCtx(ctx, s.fetchKeys, fv, ff); err != nil {
		return err
	}
	for j, i := range s.missIdx {
		slot := vals[i*s.vs : (i+1)*s.vs]
		copy(slot, fv[j*s.vs:(j+1)*s.vs])
		found[i] = ff[j]
		if ff[j] {
			s.w.cache.Put(keys[i], slot, now)
		}
	}
	return nil
}

// PutBatch does the engine write first, then a write-through of every key
// stamped with the batch's clock advance.
func (s *cachedSession) PutBatch(keys []uint64, vals []byte) error {
	if err := s.inner.PutBatch(keys, vals); err != nil {
		return err
	}
	clock := s.w.clock.Add(int64(len(keys)))
	for i, k := range keys {
		s.w.cache.Put(k, vals[i*s.vs:(i+1)*s.vs], clock)
	}
	return nil
}
