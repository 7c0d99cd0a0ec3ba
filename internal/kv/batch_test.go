package kv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/util"
)

// TestShardedBatchBlockingBoundSerial covers the GetBatch ordering gate:
// under BSP (bound 0) the sharded adapter must run batches serially in
// caller order, and a balanced get-then-put loop must make progress.
func TestShardedBatchBlockingBoundSerial(t *testing.T) {
	const vs = 8
	store := openTestStore(t, EngineFaster, 4, vs, 0)
	s, err := store.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 64
	keys := make([]uint64, n)
	vals := make([]byte, n*vs)
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i*vs] = byte(i)
	}
	if err := SessionPutBatch(s, vs, keys, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n*vs)
	found := make([]bool, n)
	for round := 0; round < 3; round++ {
		if err := SessionGetBatch(s, vs, keys, got, found); err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if !found[i] || got[i*vs] != byte(i) {
				t.Fatalf("round %d key %d: found=%v val=%d", round, keys[i], found[i], got[i*vs])
			}
		}
		// Release the tokens the clocked reads acquired.
		if err := SessionPutBatch(s, vs, keys, got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedBatchBlockingBoundOrder pins the order itself: under BSP a
// batch parked on a key another session holds must already hold every key
// before it in the caller's order and none after it, whichever shards they
// hash to — the engine's batch pass must not reorder or run ahead. With
// read-or-create and absent keys in the batch the same holds, and a key
// after the parked one is not even created: first touch happens in the
// key's turn, not in a sweep around the batch.
func TestShardedBatchBlockingBoundOrder(t *testing.T) {
	const vs = 8
	keys := []uint64{40, 10, 30, 20, 50, 60, 5} // not ascending, spread over the shards
	const parked = 2                            // the batch stalls on keys[parked]
	for _, create := range []bool{false, true} {
		t.Run(fmt.Sprintf("create=%v", create), func(t *testing.T) {
			store := openTestStore(t, EngineFaster, 4, vs, 0)
			holder, err := store.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer holder.Close()
			reader, err := store.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Close()

			// With create, every other key is left absent for the batch to create.
			absent := func(i int) bool { return create && i != parked && i%2 == 0 }
			val := make([]byte, vs)
			for i, k := range keys {
				if !absent(i) {
					if err := holder.Put(k, val); err != nil {
						t.Fatal(err)
					}
				}
			}
			if ok, err := holder.Get(keys[parked], val); err != nil || !ok { // take its token
				t.Fatal(ok, err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			vals, found := make([]byte, len(keys)*vs), make([]bool, len(keys))
			if create {
				err = reader.GetOrCreateBatchCtx(ctx, keys, vals, found, func(_ uint64, v []byte) { v[0] = 0x5a })
			} else {
				err = SessionGetBatchCtx(ctx, reader, vs, keys, vals, found)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("batch over a held key returned %v, want a deadline", err)
			}
			// A key the batch acquired now refuses a second BSP read; one it
			// never reached serves it — or, if absent, is still absent.
			for i, k := range keys {
				if i > parked && absent(i) {
					if ok, err := holder.Peek(k, val); err != nil || ok {
						t.Fatalf("key %d (position %d, parked at %d) was created ahead of its turn", k, i, parked)
					}
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				err := SessionGetBatchCtx(ctx, holder, vs, []uint64{k}, val, make([]bool, 1))
				cancel()
				if held := errors.Is(err, context.DeadlineExceeded); held != (i <= parked) {
					t.Fatalf("key %d (position %d, parked at %d): held=%v (%v)", k, i, parked, held, err)
				}
			}
		})
	}
}

// TestBlockingBatchIsOnePass pins what a blocking-bound batch costs the
// engine: on one shard a read-or-create batch of present and absent keys
// is a single engine pass, and on four shards one pass per run of
// consecutive keys on the same shard — never one call per key, and no
// separate create calls.
func TestBlockingBatchIsOnePass(t *testing.T) {
	const vs, n = 8, 256
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			store := openTestStore(t, EngineFaster, shards, vs, 8)
			s, err := store.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			val := make([]byte, vs)
			for _, k := range keys[:n/2] {
				if err := s.Put(k, val); err != nil {
					t.Fatal(err)
				}
			}
			runs := int64(0)
			for i := range keys {
				if i == 0 || util.ShardOf(keys[i], shards) != util.ShardOf(keys[i-1], shards) {
					runs++
				}
			}
			batchCalls := countPasses(store)
			g0, p0 := batchCalls()
			c0 := store.Stats()
			vals, found := make([]byte, n*vs), make([]bool, n)
			if err := s.GetOrCreateBatchCtx(context.Background(), keys, vals, found,
				func(k uint64, v []byte) { v[0] = byte(k) }); err != nil {
				t.Fatal(err)
			}
			g1, p1 := batchCalls()
			c1 := store.Stats()
			if g1-g0 != runs || p1 != p0 {
				t.Fatalf("%d-key batch over %d shard runs made %d engine batch reads and %d writes", n, runs, g1-g0, p1-p0)
			}
			if c1.Gets-c0.Gets != n || c1.RMWs != c0.RMWs || c1.RCUAppends-c0.RCUAppends != n/2 {
				t.Fatalf("engine counted %d reads, %d RMWs, %d appends; want %d, 0, %d",
					c1.Gets-c0.Gets, c1.RMWs-c0.RMWs, c1.RCUAppends-c0.RCUAppends, n, n/2)
			}
			for i, k := range keys {
				if want := i >= n/2; !found[i] || (vals[i*vs] == byte(k)) != want {
					t.Fatalf("key %d: found=%v first byte %d (created: %v)", k, found[i], vals[i*vs], want)
				}
			}
		})
	}
}

// TestShardedBatchConcurrent exercises the parallel fan-out — the mode of
// a store that has spilled — from many sessions at once (meaningful under
// -race).
func TestShardedBatchConcurrent(t *testing.T) {
	const vs, workers, batch = 8, 4, 64
	store, err := OpenEngine(EngineFaster, spillConfig(t.TempDir(), 4, vs, -1), EngineFaster)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spill(t, store)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := store.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			keys := make([]uint64, batch)
			vals := make([]byte, batch*vs)
			for i := range keys {
				keys[i] = uint64(w*batch + i)
				vals[i*vs] = byte(w)
			}
			for round := 0; round < 20; round++ {
				if err := SessionPutBatch(s, vs, keys, vals); err != nil {
					errCh <- err
					return
				}
				got := make([]byte, batch*vs)
				found := make([]bool, batch)
				if err := SessionGetBatch(s, vs, keys, got, found); err != nil {
					errCh <- err
					return
				}
				for i := range keys {
					if !found[i] || got[i*vs] != byte(w) {
						errCh <- fmt.Errorf("worker %d round %d: key %d found=%v val=%d",
							w, round, keys[i], found[i], got[i*vs])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}
