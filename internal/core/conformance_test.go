package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

// matrixOptions is the conformance matrix's table sizing.
func matrixOptions(dir string, dim, shards int, bound int64) Options {
	return Options{
		Dir: dir, Dim: dim, Shards: shards, StalenessBound: bound,
		MemoryBytes: 1 << 20, RecordsPerPage: 64, Init: UniformInit(0.1, 42),
	}
}

func testShardedTable(t *testing.T, dim, shards int, bound int64) *Table {
	t.Helper()
	tbl, err := OpenTable(matrixOptions(t.TempDir(), dim, shards, bound))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

// forEachTable runs fn over the same matrix kv's TestStoreConformance
// covers one layer down: the hybrid log (the one engine, which keeps its
// level in the subtest names) × shards ∈ {1, 4}.
func forEachTable(t *testing.T, fn func(t *testing.T, engine string, shards int)) {
	for _, engine := range []string{kv.EngineFaster} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", engine, shards), func(t *testing.T) {
				fn(t, engine, shards)
			})
		}
	}
}

// TestTableConformance: a table behaves the same at every shard count — typed round trips, seeded first-touch init, in-storage
// gradient steps, merged counters, lookahead.
func TestTableConformance(t *testing.T) {
	ctx := context.Background()
	const dim = 4
	forEachTable(t, func(t *testing.T, engine string, shards int) {
		tbl, err := OpenTable(matrixOptions(t.TempDir(), dim, shards, -1))
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		if tbl.Shards() != shards || tbl.EngineName() != engine || tbl.StalenessBound() != -1 {
			t.Fatalf("Shards=%d EngineName=%q StalenessBound=%d", tbl.Shards(), tbl.EngineName(), tbl.StalenessBound())
		}
		s, err := tbl.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		const n = 500
		val := []float32{1, 2, 3, 4}
		got := make([]float32, dim)
		for k := uint64(0); k < n; k++ {
			if err := putOne(ctx, s, k, val); err != nil {
				t.Fatal(err)
			}
			if err := getOne(ctx, s, k, got); err != nil {
				t.Fatal(err)
			}
			for i := range val {
				if got[i] != val[i] {
					t.Fatalf("key %d: got %v want %v", k, got, val)
				}
			}
			if found, err := s.Peek(ctx, k, got); err != nil || !found {
				t.Fatalf("Peek(%d) = %v, %v", k, found, err)
			}
		}
		// The counters are the sum over shards, whatever their number.
		if st := tbl.Stats(); st.Puts != n || st.Gets != n {
			t.Fatalf("merged stats: %d puts, %d gets, want %d each", st.Puts, st.Gets, n)
		}
		// Delete must route to the same shard Put used.
		for k := uint64(0); k < n; k += 7 {
			if err := s.Delete(ctx, k); err != nil {
				t.Fatal(err)
			}
			if found, _ := s.Peek(ctx, k, got); found {
				t.Fatalf("key %d still present after Delete", k)
			}
		}

		// First touch: scalar and batched reads of untouched keys see the
		// seeded initializer's values, identical at every shard count.
		fresh := []uint64{1 << 40, 1<<40 + 1, 1<<40 + 2, 1<<40 + 3}
		want := make([]float32, dim)
		if err := getOne(ctx, s, fresh[0], got); err != nil {
			t.Fatal(err)
		}
		UniformInit(0.1, 42)(fresh[0], want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("first touch read %v, initializer gives %v", got, want)
		}
		batch := make([]float32, len(fresh)*dim)
		if err := s.GetBatch(ctx, fresh, batch); err != nil {
			t.Fatal(err)
		}
		for i, k := range fresh {
			UniformInit(0.1, 42)(k, want)
			if fmt.Sprint(batch[i*dim:(i+1)*dim]) != fmt.Sprint(want) {
				t.Fatalf("batched first touch of %d read %v, initializer gives %v", k, batch[i*dim:(i+1)*dim], want)
			}
			if found, _ := s.Peek(ctx, k, got); !found {
				t.Fatalf("first touch of %d was not persisted", k)
			}
		}

		// RMW steps the stored value.
		if err := putOne(ctx, s, 3, val); err != nil {
			t.Fatal(err)
		}
		if err := s.RMW(ctx, 3, []float32{1, 1, 1, 1}, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := getOne(ctx, s, 3, got); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint([]float32{0.5, 1.5, 2.5, 3.5}) {
			t.Fatalf("after gradient step: %v", got)
		}

		// Lookahead across all shards must neither block nor error; copies
		// only happen for disk-resident records, so just exercise the path.
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = uint64(i)
		}
		s.Lookahead(keys)
	})
}

// TestTableBatchRoundTripConcurrent drives the batch path from several
// sessions at once over every matrix cell (meaningful under -race).
func TestTableBatchRoundTripConcurrent(t *testing.T) {
	ctx := context.Background()
	const (
		dim     = 8
		workers = 4
		batches = 20
		batch   = 64 // above kv's fan-out threshold so the parallel path runs
	)
	forEachTable(t, func(t *testing.T, engine string, shards int) {
		// ASP: the vector clock is exercised but never blocks. A finite bound
		// would deadlock this access pattern by design: Zipf batches repeat
		// hot keys, every worker reads before writing, and a read of a
		// record at the bound waits for a Put no blocked worker can issue.
		tbl, err := OpenTable(matrixOptions(t.TempDir(), dim, shards, faster.BoundAsync))
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()

		// Each key's value is derived from the key alone, so concurrent
		// writers of the same Zipf-hot key are idempotent and any read can
		// be verified.
		valAt := func(key uint64, i int) float32 {
			return float32(util.Mix64(key)%1000)/1000 + float32(i)
		}
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s, err := tbl.NewSession()
				if err != nil {
					errCh <- err
					return
				}
				defer s.Close()
				zipf := util.NewScrambledZipf(util.NewRNG(uint64(w)+1), 1<<14, 0.99)
				keys := make([]uint64, batch)
				vals := make([]float32, batch*dim)
				got := make([]float32, batch*dim)
				for b := 0; b < batches; b++ {
					for i := range keys {
						keys[i] = zipf.Next()
						for j := 0; j < dim; j++ {
							vals[i*dim+j] = valAt(keys[i], j)
						}
					}
					if err := s.PutBatch(ctx, keys, vals); err != nil {
						errCh <- fmt.Errorf("worker %d PutBatch: %w", w, err)
						return
					}
					if err := s.GetBatch(ctx, keys, got); err != nil {
						errCh <- fmt.Errorf("worker %d GetBatch: %w", w, err)
						return
					}
					for i, k := range keys {
						for j := 0; j < dim; j++ {
							if got[i*dim+j] != valAt(k, j) {
								errCh <- fmt.Errorf("worker %d key %d dim %d: got %f want %f",
									w, k, j, got[i*dim+j], valAt(k, j))
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	})
}

// TestParallelFirstTouch reads a batch of absent keys wide enough to fan
// out one goroutine per shard of a spilled table. Every key must be created
// from its own initializer values: the session stages each first touch in
// one reused buffer, so the fan-out must never run two creations at once.
// The initializer fails the test if it is entered while another call is in
// flight; the sleep widens the window in which an overlap would show.
func TestParallelFirstTouch(t *testing.T) {
	ctx := context.Background()
	const dim, n = 4, 64
	for _, engine := range []string{kv.EngineFaster} {
		t.Run(engine, func(t *testing.T) {
			opts := matrixOptions(t.TempDir(), dim, 4, faster.BoundAsync)
			opts.MemoryBytes = 1
			uniform := UniformInit(0.1, 42)
			var inFlight, overlaps atomic.Int32
			opts.Init = func(key uint64, dst []float32) {
				if inFlight.Add(1) > 1 {
					overlaps.Add(1)
				}
				time.Sleep(100 * time.Microsecond)
				uniform(key, dst)
				inFlight.Add(-1)
			}
			tbl, err := OpenTable(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			s, err := tbl.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			filler := make([]float32, dim)
			for k := uint64(1) << 32; tbl.store.Resident(); k++ {
				if err := putOne(ctx, s, k, filler); err != nil {
					t.Fatal(err)
				}
			}
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(i)
			}
			got := make([]float32, n*dim)
			want := make([]float32, dim)
			// The first read creates every key, the second reads the records.
			for round := 0; round < 2; round++ {
				if err := s.GetBatch(ctx, keys, got); err != nil {
					t.Fatal(err)
				}
				for i, k := range keys {
					uniform(k, want)
					if fmt.Sprint(got[i*dim:(i+1)*dim]) != fmt.Sprint(want) {
						t.Fatalf("round %d key %d read %v, initializer gives %v", round, k, got[i*dim:(i+1)*dim], want)
					}
				}
			}
			if o := overlaps.Load(); o != 0 {
				t.Fatalf("%d initializer calls overlapped another", o)
			}
		})
	}
}

// TestTableRecovery checkpoints, closes and reopens every matrix cell and
// pins the shard-count guard at the table level.
func TestTableRecovery(t *testing.T) {
	ctx := context.Background()
	const dim = 4
	forEachTable(t, func(t *testing.T, engine string, shards int) {
		opts := matrixOptions(t.TempDir(), dim, shards, -1)
		tbl, err := OpenTable(opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := tbl.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		val := []float32{9, 8, 7, 6}
		for k := uint64(0); k < 300; k++ {
			if err := putOne(ctx, s, k, val); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		if err := tbl.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Close(); err != nil {
			t.Fatal(err)
		}

		wrong := opts
		wrong.Shards = shards + 1
		if _, err := OpenTable(wrong); err == nil {
			t.Fatalf("reopening a %d-shard table with %d shards must fail", shards, wrong.Shards)
		}

		tbl2, err := OpenTable(opts) // the recorded count still opens
		if err != nil {
			t.Fatal(err)
		}
		defer tbl2.Close()
		s2, err := tbl2.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		got := make([]float32, dim)
		for k := uint64(0); k < 300; k++ {
			found, err := s2.Peek(ctx, k, got)
			if err != nil || !found || fmt.Sprint(got) != fmt.Sprint(val) {
				t.Fatalf("key %d after recovery: found=%v err=%v value %v", k, found, err, got)
			}
		}
	})
}

// TestCrossStackReopen: there is one owner of the on-disk layout, so a
// model directory written through kv.OpenEngine (the server's opener)
// reopens through core.OpenTable (the local driver's) with the same
// shard count and page size and reads back byte-exact — and the
// reverse. The hybrid log does not persist its page size, so the test
// pins it on both sides.
func TestCrossStackReopen(t *testing.T) {
	ctx := context.Background()
	const (
		dim = 4
		vs  = dim * 4
		n   = 300
		rpp = 64
	)
	embAt := func(k uint64) []float32 {
		return []float32{float32(k), float32(k) + 0.25, -float32(k), 1}
	}
	kvConfig := func(dir string, shards int) kv.ShardedConfig {
		return kv.ShardedConfig{
			Dir: dir, Shards: shards, ValueSize: vs, RecordsPerPage: rpp,
			MemoryBytes: 1 << 20, StalenessBound: -1,
		}
	}
	forEachTable(t, func(t *testing.T, engine string, shards int) {
		t.Run("kv-then-core", func(t *testing.T) {
			dir := t.TempDir()
			st, err := kv.OpenEngine(engine, kvConfig(dir, shards), engine)
			if err != nil {
				t.Fatal(err)
			}
			s, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, vs)
			for k := uint64(0); k < n; k++ {
				tensor.F32sToBytes(embAt(k), buf)
				if err := s.Put(k, buf); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			tbl, err := OpenTable(matrixOptions(dir, dim, shards, -1))
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			ts, err := tbl.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer ts.Close()
			got := make([]float32, dim)
			for k := uint64(0); k < n; k++ {
				found, err := ts.Peek(ctx, k, got)
				if err != nil || !found || fmt.Sprint(got) != fmt.Sprint(embAt(k)) {
					t.Fatalf("key %d through core: found=%v err=%v value %v", k, found, err, got)
				}
			}
		})
		t.Run("core-then-kv", func(t *testing.T) {
			dir := t.TempDir()
			tbl, err := OpenTable(matrixOptions(dir, dim, shards, -1))
			if err != nil {
				t.Fatal(err)
			}
			ts, err := tbl.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < n; k++ {
				if err := putOne(ctx, ts, k, embAt(k)); err != nil {
					t.Fatal(err)
				}
			}
			ts.Close()
			if err := tbl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Close(); err != nil {
				t.Fatal(err)
			}

			st, err := kv.OpenEngine(engine, kvConfig(dir, shards), engine)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			s, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			buf, want := make([]byte, vs), make([]byte, vs)
			for k := uint64(0); k < n; k++ {
				tensor.F32sToBytes(embAt(k), want)
				found, err := s.Peek(k, buf)
				if err != nil || !found || string(buf) != string(want) {
					t.Fatalf("key %d through kv: found=%v err=%v", k, found, err)
				}
			}
		})
	})
}

// TestBlockingBoundBatchAcquiresInOrder pins the ordering rule for batches
// under a blocking bound, with a first-touch miss in the batch. A clocked
// read is a token acquisition only the matching Put releases, so every key
// must be read — on a first touch, created with its token — before the
// next one is touched: a session that batch-read everything and only then
// repaired its misses would hold a later key's token while creating an
// earlier key another session may hold — a cycle. The test parks a batch [absent, held,
// present] on its middle key and probes what it holds: the absent key
// must already be initialized and taken, the key past the block untouched.
func TestBlockingBoundBatchAcquiresInOrder(t *testing.T) {
	const dim = 4
	tbl := testShardedTable(t, dim, 4, 0)
	val := []float32{1, 2, 3, 4}
	keys := []uint64{3, 4, 5} // 3 is absent
	holder, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	for _, k := range keys[1:] {
		if err := putOne(context.Background(), holder, k, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := getOne(context.Background(), holder, 4, make([]float32, dim)); err != nil { // take 4's token
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		s, err := tbl.NewSession()
		if err != nil {
			done <- err
			return
		}
		defer s.Close()
		dst := make([]float32, len(keys)*dim)
		if err := s.GetBatch(context.Background(), keys, dst); err != nil {
			done <- err
			return
		}
		done <- s.PutBatch(context.Background(), keys, dst)
	}()
	for deadline := time.Now().Add(10 * time.Second); tbl.Stats().StalenessWaits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the batch never blocked on the held key")
		}
		time.Sleep(time.Millisecond)
	}

	probe, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	got := make([]float32, dim)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = getOne(ctx, probe, 3, got)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("key 3 precedes the blocked key, so the batch must hold its token (first touch included); probe read returned %v", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	err = getOne(ctx, probe, 5, got)
	cancel()
	if err != nil {
		t.Fatalf("key 5 follows the blocked key, so the batch must not hold it yet; probe read returned %v", err)
	}
	if err := putOne(context.Background(), probe, 5, got); err != nil {
		t.Fatal(err)
	}
	if err := putOne(context.Background(), holder, 4, val); err != nil { // release: the batch finishes
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not finish after the held key was released")
	}
}

// TestBlockingBoundBatchWorkers is the liveness side of the same rule:
// several workers run unique ascending batches, first-touch misses
// included, over a sliding window of a half-empty 4-shard table at BSP
// and a finite SSP bound; a hang fails the test.
func TestBlockingBoundBatchWorkers(t *testing.T) {
	ctx := context.Background()
	const (
		dim     = 4
		workers = 4
		rounds  = 30
		window  = 96
		batch   = 40 // above kv's fan-out threshold: unordered would fan out
	)
	for _, bound := range []int64{0, 2} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			tbl := testShardedTable(t, dim, 4, bound)
			// Half-empty: even keys exist, odd keys are first touches.
			pre, err := tbl.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < rounds*16+window; k += 2 {
				if err := putOne(ctx, pre, k, []float32{1, 1, 1, 1}); err != nil {
					t.Fatal(err)
				}
			}
			pre.Close()

			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s, err := tbl.NewSession()
					if err != nil {
						errCh <- err
						return
					}
					defer s.Close()
					rng := util.NewRNG(uint64(w) + 7)
					keys := make([]uint64, 0, batch)
					vals := make([]float32, batch*dim)
					for r := 0; r < rounds; r++ {
						// batch unique keys of the round's window, ascending.
						keys = keys[:0]
						base, left := uint64(r*16), batch
						for i := 0; i < window && left > 0; i++ {
							if rng.Uint64()%uint64(window-i) < uint64(left) {
								keys = append(keys, base+uint64(i))
								left--
							}
						}
						if err := s.GetBatch(ctx, keys, vals[:len(keys)*dim]); err != nil {
							errCh <- fmt.Errorf("worker %d GetBatch: %w", w, err)
							return
						}
						// The balancing write releases every token.
						if err := s.PutBatch(ctx, keys, vals[:len(keys)*dim]); err != nil {
							errCh <- fmt.Errorf("worker %d PutBatch: %w", w, err)
							return
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("workers deadlocked: batch reads did not acquire tokens in caller order")
			}
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

func TestShardingRefusedOnUnshardedData(t *testing.T) {
	// A pre-sharding table directory (hlog.dat at the root, no SHARDS
	// metadata) must not silently reshard.
	dir := t.TempDir()
	tbl, err := OpenTable(Options{Dir: dir, Dim: 4, MemoryBytes: 1 << 20, RecordsPerPage: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	// Simulate a pre-sharding directory by dropping the metadata file.
	if err := os.Remove(filepath.Join(dir, util.ShardsMetaFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(Options{Dir: dir, Dim: 4, Shards: 4, MemoryBytes: 1 << 20, RecordsPerPage: 64}); err == nil {
		t.Fatal("sharding a directory holding unsharded data must fail")
	}
}
