package kv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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
// hash to — the engine's batch pass must not reorder or run ahead.
func TestShardedBatchBlockingBoundOrder(t *testing.T) {
	const vs = 8
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

	keys := []uint64{40, 10, 30, 20, 50} // not ascending, spread over the shards
	const parked = 2                     // the batch stalls on keys[parked]
	val := make([]byte, vs)
	for _, k := range keys {
		if err := holder.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := holder.Get(keys[parked], val); err != nil || !ok { // take its token
		t.Fatal(ok, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	vals, found := make([]byte, len(keys)*vs), make([]bool, len(keys))
	if err := SessionGetBatchCtx(ctx, reader, vs, keys, vals, found); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch over a held key returned %v, want a deadline", err)
	}
	// A key the batch acquired now refuses a second BSP read; one it never
	// reached serves it.
	for i, k := range keys {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := holder.GetCtx(ctx, k, val)
		cancel()
		if held := errors.Is(err, context.DeadlineExceeded); held != (i <= parked) {
			t.Fatalf("key %d (position %d, parked at %d): held=%v (%v)", k, i, parked, held, err)
		}
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
