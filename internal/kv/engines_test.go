package kv

import (
	"bytes"
	"sync/atomic"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

// countPasses starts counting the engine batch calls st issues, all
// sessions together, and returns a reader of the batch reads and batch
// writes counted so far.
func countPasses(st Store) func() (gets, puts int64) {
	var g, p atomic.Int64
	st.(*shardedStore).onPass = func(_ int, put bool) {
		if put {
			p.Add(1)
		} else {
			g.Add(1)
		}
	}
	return func() (int64, int64) { return g.Load(), p.Load() }
}

// TestEngineBatchFanOutBounded is the batching regression test: a 256-key
// GetBatch against a 4-shard engine store must reach the engine as at most
// one native batch call per shard — not 256 scalar reads dressed up as a
// batch. Same for PutBatch. The batch-call counters sit exactly at the
// shard boundary, so any regression to per-key fan-out moves them by two
// orders of magnitude.
func TestEngineBatchFanOutBounded(t *testing.T) {
	const (
		shards = 4
		vs     = 16
		n      = 256
	)
	for _, engine := range []string{EngineFaster} {
		t.Run(engine, func(t *testing.T) {
			st := openTestStore(t, engine, shards, vs, -1)
			s, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			r := util.NewRNG(0xfa0)
			keys := make([]uint64, n)
			vals := make([]byte, n*vs)
			found := make([]bool, n)
			for i := range keys {
				keys[i] = r.Uint64() | 1 // spread across all shards
				vals[i*vs] = byte(i)
			}

			batchCalls := countPasses(st)
			g0, p0 := batchCalls()
			if err := SessionPutBatch(s, vs, keys, vals); err != nil {
				t.Fatal(err)
			}
			g1, p1 := batchCalls()
			if dp := p1 - p0; dp < 1 || dp > shards {
				t.Fatalf("256-key PutBatch issued %d engine batch calls, want 1..%d", dp, shards)
			}
			if g1 != g0 {
				t.Fatalf("PutBatch issued %d engine batch reads", g1-g0)
			}

			read := make([]byte, n*vs)
			if err := SessionGetBatch(s, vs, keys, read, found); err != nil {
				t.Fatal(err)
			}
			g2, p2 := batchCalls()
			if dg := g2 - g1; dg < 1 || dg > shards {
				t.Fatalf("256-key GetBatch issued %d engine batch calls, want 1..%d", dg, shards)
			}
			if p2 != p1 {
				t.Fatalf("GetBatch issued %d engine batch writes", p2-p1)
			}

			// The fan-out must still be correct, not merely cheap.
			for i := range keys {
				if !found[i] {
					t.Fatalf("key %d missing after PutBatch", keys[i])
				}
				if !bytes.Equal(read[i*vs:(i+1)*vs], vals[i*vs:(i+1)*vs]) {
					t.Fatalf("key %d value mismatch", keys[i])
				}
			}
		})
	}
}

// BenchmarkSessionSingleKey times kv's single-key Get and Put — the one-key
// cases of GetBatchCtx and PutBatch — on a resident one-shard store with no
// tier: the one-key batches a public-API Get or Put becomes locally, and
// the benchmark's engine rung, so its cost over one engine pass is the
// batch path's per-call overhead.
func BenchmarkSessionSingleKey(b *testing.B) {
	const vs, n = 64, 1 << 14
	for _, op := range []string{"get", "put"} {
		b.Run(op, func(b *testing.B) {
			st, err := OpenEngine(EngineFaster, ShardedConfig{
				Dir: b.TempDir(), ValueSize: vs, RecordsPerPage: 1024,
				MemoryBytes: 64 << 20, ExpectedKeys: n, StalenessBound: -1,
			}, EngineFaster)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			s, err := st.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			v := make([]byte, vs)
			for k := uint64(0); k < n; k++ {
				if err := s.Put(k, v); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i) & (n - 1)
				if op == "get" {
					_, err = s.Get(k, v)
				} else {
					err = s.Put(k, v)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
