package mlkv_test

import (
	"context"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/util"
)

// remoteGetBatchAllocBudget is the committed allocs/op ceiling for the
// remote 256-key GetBatch hot path, client and loopback server combined.
// The steady state is 0 allocs/op (the response channel, the pooled-buffer
// box and the frame reader's length prefix went with the single-key work
// below, from 5; the last 2 were the sharded store's fan-out closure and
// wait group, gone with TestLocalGetBatchAllocBudget's rule); the budget
// leaves headroom for scheduler noise while still failing loudly if
// per-frame or per-batch allocations creep back in (the pre-pooling path
// was 13).
const remoteGetBatchAllocBudget = 2

// TestRemoteGetBatchAllocBudget is the allocation-regression gate wired
// into CI's bench-smoke step: it fails when the remote hot read path
// allocates more than the committed budget per 256-key GetBatch. It
// shares its harness (and thus its exact configuration — single-shard
// loopback server, 2^16 first-touched keys) with
// BenchmarkRemoteGetBatch256, the benchmark BENCH_allocs.json tracks.
func TestRemoteGetBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a steady loopback server")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const batch = 256
	s, keys, dst := newRemoteBenchSession(t, batch, 0)
	zipf := util.NewScrambledZipf(util.NewRNG(7), remoteBenchRecords, 0.99)
	// A few untimed rounds settle the pools and scratch growth.
	for i := 0; i < 16; i++ {
		for j := range keys {
			keys[j] = zipf.Next()
		}
		if err := s.GetBatch(keys, dst); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for j := range keys {
			keys[j] = zipf.Next()
		}
		if err := s.GetBatch(keys, dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("remote GetBatch(%d): %.1f allocs/op (budget %d)", batch, avg, remoteGetBatchAllocBudget)
	if avg > remoteGetBatchAllocBudget {
		t.Fatalf("remote GetBatch(%d) allocates %.1f/op, budget %d — the hot path regressed",
			batch, avg, remoteGetBatchAllocBudget)
	}
}

// Committed allocs/op ceilings for the remote single-key ops, client and
// loopback server combined, called with a deadline-carrying context as the
// benchmark's op loop does. They sit at the measured steady state — the
// single-key frame path allocates nothing — where the previous path
// measured Get 9, Put 6, RMW 15: a context.WithTimeout per GET on the
// server, a []uint64{key} per write for replicate, a response channel and
// a pooled-buffer box per round trip, the frame reader's escaping length
// prefix on both sides, and two frames per RMW. Peek, the evaluation
// path's read, travels as a one-key PEEKBATCH and allocates nothing either.
// (AllocsPerRun truncates to an integer, so the odd sudog refill after a GC
// does not trip a zero.)
const (
	remoteGetAllocBudget  = 0
	remotePutAllocBudget  = 0
	remoteRMWAllocBudget  = 0
	remotePeekAllocBudget = 0
)

// TestRemoteSingleKeyAllocBudget is the single-key half of the allocation
// gate (CI's "Allocation gate" step): remote Get, Put, RMW and Peek on
// existing keys may allocate at most their committed budgets per call.
func TestRemoteSingleKeyAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a steady loopback server")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s, _, dst := newRemoteBenchSession(t, 256, 0)
	val := dst[:remoteBenchDim]
	grad := make([]float32, remoteBenchDim)
	for i := range grad {
		grad[i] = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	zipf := util.NewScrambledZipf(util.NewRNG(7), remoteBenchRecords, 0.99)
	for _, op := range []struct {
		name   string
		budget float64
		call   func(key uint64) error
	}{
		{"Get", remoteGetAllocBudget, func(k uint64) error { return s.GetCtx(ctx, k, val) }},
		{"Put", remotePutAllocBudget, func(k uint64) error { return s.PutCtx(ctx, k, val) }},
		{"RMW", remoteRMWAllocBudget, func(k uint64) error { return s.RMWCtx(ctx, k, grad, 0.5) }},
		{"Peek", remotePeekAllocBudget, func(k uint64) error { _, err := s.PeekCtx(ctx, k, val); return err }},
	} {
		t.Run(op.name, func(t *testing.T) {
			// A few untimed rounds settle the pools and scratch growth.
			for i := 0; i < 64; i++ {
				if err := op.call(zipf.Next()); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(500, func() {
				if err := op.call(zipf.Next()); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("remote %s: %.2f allocs/op (budget %.0f)", op.name, avg, op.budget)
			if avg > op.budget {
				t.Fatalf("remote %s allocates %.2f/op, budget %.0f — the single-key frame path regressed",
					op.name, avg, op.budget)
			}
		})
	}
}

// Committed allocs/op ceilings for a local 256-key GetBatch on a 4-shard
// model opened with WithCache, public API to hybrid log. While the table
// fits in WithMemory the batch runs on the caller's goroutine — shard
// groups one after another, hot tier bypassed — and allocates nothing; a
// goroutine spawn allocates, so the zero pins that rule (the
// goroutine-per-shard path it replaced measured 6/op here). Once the store
// has spilled the groups run one goroutine per shard to overlap their disk
// reads: the steady state is 4 allocs/op, one goroutine closure per shard
// (16 before: the fan-out's wait group and closure, and a record buffer
// per disk read), and the ceiling leaves the headroom the remote budget
// does. A spilled batch under kv's 16-key fan-out floor spawns nothing and
// allocates nothing: a spawn costs more than the few reads it would overlap.
const (
	localGetBatchResidentAllocBudget     = 0
	localGetBatchSpilledAllocBudget      = 8
	localGetBatchSpilledSmallAllocBudget = 0
)

// TestLocalGetBatchAllocBudget is the local half of the allocation gate
// (CI's "Allocation gate" step).
func TestLocalGetBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const (
		dim     = 16
		batch   = 256
		records = 1 << 14
	)
	db, err := mlkv.Connect(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	zipf := util.NewScrambledZipf(util.NewRNG(7), records, 0.99)
	for _, c := range []struct {
		name   string
		memory int64 // WithMemory: holds all records, or a few pages
		read   int   // keys per timed GetBatch
		budget float64
	}{
		{"resident", 32 << 20, batch, localGetBatchResidentAllocBudget},
		{"spilled", 1, batch, localGetBatchSpilledAllocBudget},
		{"spilled-small", 1, 15, localGetBatchSpilledSmallAllocBudget},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := db.Open("alloc-"+c.name, dim, mlkv.WithShards(4), mlkv.WithCache(1024),
				mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithMemory(c.memory), mlkv.WithExpectedKeys(records))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			s, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			keys := make([]uint64, batch)
			dst := make([]float32, batch*dim)
			for lo := 0; lo < records; lo += batch {
				for j := range keys {
					keys[j] = uint64(lo + j)
				}
				if err := s.PutBatch(keys, dst); err != nil {
					t.Fatal(err)
				}
			}
			keys, dst = keys[:c.read], dst[:c.read*dim]
			read := func() {
				for j := range keys {
					keys[j] = zipf.Next()
				}
				if err := s.GetBatch(keys, dst); err != nil {
					t.Fatal(err)
				}
			}
			// A few untimed rounds settle scratch growth and the tier.
			for i := 0; i < 16; i++ {
				read()
			}
			before := m.Stats()
			avg := testing.AllocsPerRun(100, read)
			after := m.Stats()
			tier := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
			if spilled := after.DiskReads > 0; spilled != (c.memory == 1) {
				t.Fatalf("fixture is not %s: %d disk reads so far", c.name, after.DiskReads)
			}
			if consulted := tier > 0; consulted != (c.memory == 1) {
				t.Fatalf("%s model made %d tier lookups in 101 batches", c.name, tier)
			}
			t.Logf("local GetBatch(%d) %s: %.1f allocs/op (budget %.0f)", c.read, c.name, avg, c.budget)
			if avg > c.budget {
				t.Fatalf("local GetBatch(%d) on a %s model allocates %.1f/op, budget %.0f",
					c.read, c.name, avg, c.budget)
			}
		})
	}
}

// TestLocalFirstTouchAllocBudget gates first touch under a blocking bound:
// a 256-key GetBatch of keys never read before, on a one-shard SSP(4)
// model, creates every key inside the engine pass through a callback the
// session binds once, and allocates nothing — the PutBatch releasing the
// tokens included. The three-call path it replaced (read, RMW-init, read
// again per key) allocated an RMW closure per key: 256/op.
func TestLocalFirstTouchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const dim, batch = 16, 256
	db, err := mlkv.Connect(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open("first-touch", dim, mlkv.WithStalenessBound(4),
		mlkv.WithMemory(64<<20), mlkv.WithExpectedKeys(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys, dst := make([]uint64, batch), make([]float32, batch*dim)
	next := uint64(0)
	step := func() {
		for j := range keys {
			keys[j] = next
			next++
		}
		if err := s.GetBatch(keys, dst); err != nil {
			t.Fatal(err)
		}
		if err := s.PutBatch(keys, dst); err != nil {
			t.Fatal(err)
		}
	}
	step() // grows the session scratch once
	before := m.Stats()
	avg := testing.AllocsPerRun(100, step)
	if created := m.Stats().RCUAppends - before.RCUAppends; created != 101*batch {
		t.Fatalf("%d first touches appended %d records", 101*batch, created)
	}
	t.Logf("local first-touch GetBatch(%d) + PutBatch: %.1f allocs/op", batch, avg)
	if avg > 0 {
		t.Fatalf("local first-touch GetBatch(%d) + PutBatch allocates %.1f/op, budget 0", batch, avg)
	}
}

// Committed allocs/op ceilings for a trainer's step as storage sees it with
// look-ahead on: one 256-key hint for the next batch, then the 256-key read
// of the current one (which allocates nothing on these memory-resident
// fixtures, see above). Both drivers copy the hint into their hint queue's
// recycled chunk buffers. Locally the queue's own store sessions serve it:
// nothing allocates. Remotely the queue's worker sends a LOOKAHEAD frame on
// the pooled frame path; the one allocation is the
// server encoding the reply's count. Before the buffers were recycled every
// remote hint also allocated its own copy of the keys.
const (
	localLookaheadAllocBudget  = 0
	remoteLookaheadAllocBudget = 1
)

// TestLookaheadAllocBudget is the look-ahead part of the allocation gate
// (CI's "Allocation gate" step). The read paces the hints as a training
// step does, but with no compute between steps a queue can still fill, so
// the budget covers the drop path too; the accounting must add up either
// way: every driver counts the caller's calls, and what a queue dropped it
// dropped whole, in keys.
func TestLookaheadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const (
		dim     = 16
		batch   = 256
		records = 1 << 12 // fits the test server's 1 MiB
		steps   = 128 + 1 + 100
	)
	for _, c := range []struct {
		name   string
		target func() string
		budget float64
	}{
		{"local", t.TempDir, localLookaheadAllocBudget},
		{"remote", func() string { return startTestServer(t, mlkv.ASP) }, remoteLookaheadAllocBudget},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := mlkv.Connect(c.target())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			m, err := db.Open("hint-alloc", dim, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithExpectedKeys(records))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			s, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cur, next := make([]uint64, batch), make([]uint64, batch)
			dst := make([]float32, batch*dim)
			for lo := 0; lo < records; lo += batch {
				for j := range cur {
					cur[j] = uint64(lo + j)
				}
				if err := s.PutBatch(cur, dst); err != nil {
					t.Fatal(err)
				}
			}
			zipf := util.NewScrambledZipf(util.NewRNG(7), records, 0.99)
			step := func() {
				cur, next = next, cur
				for j := range next {
					next[j] = zipf.Next()
				}
				if err := s.Lookahead(next); err != nil {
					t.Fatal(err)
				}
				if err := s.GetBatch(cur, dst); err != nil {
					t.Fatal(err)
				}
			}
			// Untimed rounds grow the scratch and cycle every hint buffer once.
			for i := 0; i < 128; i++ {
				step()
			}
			avg := testing.AllocsPerRun(100, step)
			st := m.Stats()
			// One drop rule on both drivers: from the first chunk that finds
			// the queue full the rest of the hint drops, so a 256-key hint
			// (64-key chunks locally, one chunk remotely) drops in whole
			// 64-key pieces.
			if st.LookaheadCalls != steps || st.PrefetchDropped%64 != 0 {
				t.Fatalf("%d hints sent: LookaheadCalls %d, %d keys dropped", steps, st.LookaheadCalls, st.PrefetchDropped)
			}
			t.Logf("%s Lookahead(%d) + GetBatch: %.1f allocs/op (budget %.0f)", c.name, batch, avg, c.budget)
			if avg > c.budget {
				t.Fatalf("%s Lookahead(%d) + GetBatch allocates %.1f/op, budget %.0f", c.name, batch, avg, c.budget)
			}
		})
	}
}
