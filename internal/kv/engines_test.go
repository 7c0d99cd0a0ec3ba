package kv

import (
	"bytes"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

// TestEngineBatchFanOutBounded is the batching regression test: a 256-key
// GetBatch against a 4-shard engine store must reach the engine as at most
// one native batch call per shard — not 256 scalar reads dressed up as a
// batch. Same for PutBatch. The BatchCalls counters sit exactly at the
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
			rep, ok := st.(BatchCallReporter)
			if !ok {
				t.Fatalf("%T does not report engine-level batch calls", st)
			}
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

			g0, p0 := rep.BatchCalls()
			if err := SessionPutBatch(s, vs, keys, vals); err != nil {
				t.Fatal(err)
			}
			g1, p1 := rep.BatchCalls()
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
			g2, p2 := rep.BatchCalls()
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
