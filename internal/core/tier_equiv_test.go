package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/tensor"
)

// embSession is the slice of *Session the equivalence script drives.
type embSession interface {
	GetBatch(ctx context.Context, keys []uint64, dst []float32) error
	PutBatch(ctx context.Context, keys []uint64, vals []float32) error
	RMW(ctx context.Context, key uint64, grad []float32, lr float32) error
	Delete(ctx context.Context, key uint64) error
}

// handSession is a table session written out by hand over a byte-level
// store: the float32 codec and first touch as a read-or-create batch, and
// nothing about a tier.
type handSession struct {
	st   kv.Store
	s    kv.Session
	dim  int
	init Initializer
}

func (h *handSession) initInto(key uint64, cur []byte) {
	v := make([]float32, h.dim)
	h.init(key, v)
	tensor.F32sToBytes(v, cur)
}

func (h *handSession) GetBatch(ctx context.Context, keys []uint64, dst []float32) error {
	vals, found := make([]byte, len(keys)*h.dim*4), make([]bool, len(keys))
	if err := h.s.GetOrCreateBatchCtx(ctx, keys, vals, found, h.initInto); err != nil {
		return err
	}
	tensor.BytesToF32s(vals, dst)
	return nil
}

func (h *handSession) PutBatch(_ context.Context, keys []uint64, vals []float32) error {
	b := make([]byte, len(vals)*4)
	tensor.F32sToBytes(vals, b)
	return kv.SessionPutBatch(h.s, h.dim*4, keys, b)
}

func (h *handSession) RMW(_ context.Context, key uint64, grad []float32, lr float32) error {
	return h.s.RMW(key, func(cur []byte, exists bool) bool {
		if !exists {
			h.initInto(key, cur)
		}
		tensor.StepBytes(cur, grad, lr)
		return true
	})
}

func (h *handSession) Delete(_ context.Context, key uint64) error { return h.s.Delete(key) }

// TestTableTierIsTheWrapper pins "one implementation": a table opened with
// CacheEntries and a byte-level engine store opened with
// kv.ShardedConfig.CacheEntries, with the table's codec applied by hand,
// are the same tier. One scripted sequence — spill,
// Put, Get, GetBatch with partial hits, RMW, Delete, first touch, enough
// keys to evict — returns identical values and leaves identical hit, miss
// and eviction counts on both, under ASP, SSP(4) and BSP.
func TestTableTierIsTheWrapper(t *testing.T) {
	const (
		dim     = 2
		entries = 64 // 4 per tier shard: the script evicts
	)
	for _, bound := range []int64{faster.BoundAsync, 4, 0} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			init := UniformInit(0.1, 7)
			tbl, err := OpenTable(Options{
				Dir: t.TempDir(), Dim: dim, Shards: 2, StalenessBound: bound,
				MemoryBytes: 1, RecordsPerPage: 64, CacheEntries: entries, Init: init,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			ts, err := tbl.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()

			st, err := kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
				Dir: t.TempDir(), Shards: 2, ValueSize: dim * 4, RecordsPerPage: 64,
				MemoryBytes: 1, StalenessBound: bound, CacheEntries: entries,
			}, kv.EngineFaster)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ks, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer ks.Close()
			hs := &handSession{st: st, s: ks, dim: dim, init: init}

			sides := []embSession{ts, hs}
			ctx := context.Background()
			tier := func(c stats.Counters) [3]int64 {
				return [3]int64{c.CacheHits, c.CacheMisses, c.CacheEvictions}
			}
			// both runs op on each side and requires the same read-back and
			// the same tier counters after it.
			step := 0
			both := func(what string, op func(s embSession, out []float32) error, outLen int) []float32 {
				t.Helper()
				step++
				var outs [2][]float32
				for i, s := range sides {
					outs[i] = make([]float32, outLen)
					if err := op(s, outs[i]); err != nil {
						t.Fatalf("step %d (%s), side %d: %v", step, what, i, err)
					}
				}
				if !slices.Equal(outs[0], outs[1]) {
					t.Fatalf("step %d (%s): table read %v, store read %v", step, what, outs[0], outs[1])
				}
				if a, b := tier(tbl.Stats()), tier(st.Stats()); a != b {
					t.Fatalf("step %d (%s): table tier hits/misses/evictions %v, store %v", step, what, a, b)
				}
				return outs[0]
			}
			// Every clocked read is balanced by writing the value back, so a
			// blocking bound never stalls the single session.
			get := func(k uint64) {
				both(fmt.Sprintf("Get %d", k), func(s embSession, out []float32) error {
					if err := getOne(ctx, s, k, out); err != nil {
						return err
					}
					return putOne(ctx, s, k, out)
				}, dim)
			}
			getBatch := func(keys []uint64) {
				both(fmt.Sprintf("GetBatch %v", keys), func(s embSession, out []float32) error {
					if err := s.GetBatch(ctx, keys, out); err != nil {
						return err
					}
					return s.PutBatch(ctx, keys, out)
				}, len(keys)*dim)
			}

			// Spill: the same filler through both until neither is resident.
			zero := make([]float32, dim)
			for n := uint64(0); tbl.store.Resident() || st.Resident(); n++ {
				if n == 1<<20 {
					t.Fatal("still resident after 2^20 filler writes")
				}
				both("filler", func(s embSession, _ []float32) error { return putOne(ctx, s, 1<<32+n, zero) }, 0)
			}

			keys := make([]uint64, 40)
			vals := make([]float32, len(keys)*dim)
			for i := range keys {
				keys[i] = uint64(i + 1)
				vals[i*dim], vals[i*dim+1] = float32(i+1), float32(-i-1)
			}
			both("PutBatch 1..40", func(s embSession, _ []float32) error { return s.PutBatch(ctx, keys, vals) }, 0)
			for k := uint64(33); k <= 40; k++ { // the newest entries: hits unless BSP
				get(k)
			}
			getBatch([]uint64{38, 100, 3, 101, 40, 1}) // hits, first touches, evicted keys
			grad := []float32{1, -1}
			for _, k := range []uint64{38, 100, 999} { // cached, first-touched, absent
				both(fmt.Sprintf("RMW %d", k), func(s embSession, _ []float32) error {
					return s.RMW(ctx, k, grad, 0.5)
				}, 0)
				get(k)
			}
			both("Delete 40", func(s embSession, _ []float32) error { return s.Delete(ctx, 40) }, 0)
			get(40)                              // first touch again
			for k := uint64(200); k < 300; k++ { // churn: first touches that evict
				get(k)
			}
			getBatch([]uint64{290, 1, 295, 2000, 299, 38, 999})

			c := tbl.Stats()
			if bound == 0 {
				if c.CacheHits != 0 {
					t.Fatalf("BSP served %d reads from the tier", c.CacheHits)
				}
				return
			}
			if c.CacheHits == 0 || c.CacheMisses == 0 || c.CacheEvictions == 0 {
				t.Fatalf("the script did not exercise the tier: %d hits, %d misses, %d evictions",
					c.CacheHits, c.CacheMisses, c.CacheEvictions)
			}
		})
	}
}
