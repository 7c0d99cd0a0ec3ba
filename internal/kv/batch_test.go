package kv

import (
	"fmt"
	"sync"
	"testing"
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
