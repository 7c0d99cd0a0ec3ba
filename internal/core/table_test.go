package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

func testTable(t *testing.T, dim int, bound int64) *Table {
	t.Helper()
	tbl, err := OpenTable(Options{
		Dir:            t.TempDir(),
		Dim:            dim,
		StalenessBound: bound,
		MemoryBytes:    1 << 20,
		RecordsPerPage: 64,
		Init:           UniformInit(0.1, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

// batchSession is what getOne and putOne need of a session.
type batchSession interface {
	GetBatch(ctx context.Context, keys []uint64, dst []float32) error
	PutBatch(ctx context.Context, keys []uint64, vals []float32) error
}

// getOne and putOne read and write one key as a one-key GetBatch and
// PutBatch, which is what mlkv's single-key Get and Put send.
func getOne(ctx context.Context, s batchSession, key uint64, dst []float32) error {
	return s.GetBatch(ctx, []uint64{key}, dst)
}

func putOne(ctx context.Context, s batchSession, key uint64, val []float32) error {
	return s.PutBatch(ctx, []uint64{key}, val)
}

func TestTableGetInitializesFirstTouch(t *testing.T) {
	ctx := context.Background()
	tbl := testTable(t, 8, -1)
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	emb := make([]float32, 8)
	if err := getOne(ctx, s, 1, emb); err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, v := range emb {
		if v != 0 {
			nonzero = true
		}
		if v < -0.1 || v >= 0.1 {
			t.Fatalf("init out of range: %v", v)
		}
	}
	if !nonzero {
		t.Fatal("initializer produced all zeros")
	}
	// Same key, same init — deterministic.
	emb2 := make([]float32, 8)
	if err := getOne(ctx, s, 1, emb2); err != nil {
		t.Fatal(err)
	}
	for i := range emb {
		if emb[i] != emb2[i] {
			t.Fatal("initialized embedding unstable")
		}
	}
}

// TestTablePutGetRoundTrip includes the values a float32 round trip can
// lose and a byte view cannot: NaN payloads (quiet, signalling, negative),
// −0 and a denormal must come back bit for bit from Get, GetBatch and Peek.
func TestTablePutGetRoundTrip(t *testing.T) {
	ctx := context.Background()
	tbl := testTable(t, 8, -1)
	s, _ := tbl.NewSession()
	defer s.Close()
	want := []float32{1.5, -2.25, 3.125}
	for _, bits := range []uint32{0x7fc00001, 0x7f800001, 0xffc12345, 0x80000000, 0x00000001} {
		want = append(want, math.Float32frombits(bits))
	}
	if err := putOne(ctx, s, 7, want); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(ctx, []uint64{8}, want); err != nil {
		t.Fatal(err)
	}
	got, batch, peeked := make([]float32, 8), make([]float32, 16), make([]float32, 8)
	if err := getOne(ctx, s, 7, got); err != nil {
		t.Fatal(err)
	}
	if err := s.GetBatch(ctx, []uint64{8, 7}, batch); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Peek(ctx, 7, peeked); err != nil || !ok {
		t.Fatal(ok, err)
	}
	for i := range want {
		w := math.Float32bits(want[i])
		for name, v := range map[string]float32{"Get": got[i], "GetBatch": batch[i], "GetBatch[1]": batch[8+i], "Peek": peeked[i]} {
			if math.Float32bits(v) != w {
				t.Fatalf("dim %d: %s returned %08x, want %08x", i, name, math.Float32bits(v), w)
			}
		}
	}
}

func TestTableBatchOps(t *testing.T) {
	ctx := context.Background()
	tbl := testTable(t, 4, -1)
	s, _ := tbl.NewSession()
	defer s.Close()
	keys := []uint64{1, 2, 3}
	vals := make([]float32, 12)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := s.PutBatch(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 12)
	if err := s.GetBatch(ctx, keys, got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: got %v want %v", i, got[i], vals[i])
		}
	}
}

func TestTableDimValidation(t *testing.T) {
	ctx := context.Background()
	tbl := testTable(t, 4, -1)
	s, _ := tbl.NewSession()
	defer s.Close()
	if err := getOne(ctx, s, 1, make([]float32, 3)); err == nil {
		t.Fatal("wrong dim accepted in Get")
	}
	if err := putOne(ctx, s, 1, make([]float32, 5)); err == nil {
		t.Fatal("wrong dim accepted in Put")
	}
	if err := s.GetBatch(ctx, []uint64{1, 2}, make([]float32, 7)); err == nil {
		t.Fatal("wrong batch size accepted")
	}
}

func TestApplyGradient(t *testing.T) {
	ctx := context.Background()
	tbl := testTable(t, 4, -1)
	s, _ := tbl.NewSession()
	defer s.Close()
	putOne(ctx, s, 1, []float32{1, 1, 1, 1})
	if err := s.RMW(ctx, 1, []float32{1, 2, 3, 4}, 0.5); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 4)
	getOne(ctx, s, 1, got)
	want := []float32{0.5, 0, -0.5, -1}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-6 {
			t.Fatalf("dim %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestFirstTouchCreatesOnce pins that a key is created once, by the first
// read that finds it absent: a second session's first read of it appends
// nothing and does not re-initialize it — it reads the first session's
// trained value — and eight sessions first-touching one key set under BSP
// append exactly one record per key between them.
func TestFirstTouchCreatesOnce(t *testing.T) {
	ctx := context.Background()
	tbl := testTable(t, 4, 4)
	a, _ := tbl.NewSession()
	defer a.Close()
	b, _ := tbl.NewSession()
	defer b.Close()
	emb, got := make([]float32, 4), make([]float32, 4)
	if err := getOne(ctx, a, 1, emb); err != nil { // first touch; holds one token
		t.Fatal(err)
	}
	trained := []float32{9, 8, 7, 6}
	if err := putOne(ctx, a, 1, trained); err != nil {
		t.Fatal(err)
	}
	before := tbl.Stats()
	if err := getOne(ctx, b, 1, got); err != nil {
		t.Fatal(err)
	}
	after := tbl.Stats()
	if after.RCUAppends != before.RCUAppends || after.InPlaceUpdates != before.InPlaceUpdates {
		t.Fatalf("a read of an existing key wrote: appends %d→%d, in-place %d→%d",
			before.RCUAppends, after.RCUAppends, before.InPlaceUpdates, after.InPlaceUpdates)
	}
	for i := range trained {
		if got[i] != trained[i] {
			t.Fatalf("second session read %v, want the trained %v", got, trained)
		}
	}

	bsp := testTable(t, 4, 0)
	const workers, n = 8, 256
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := bsp.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			vals := make([]float32, n*4)
			if err := s.GetBatch(ctx, keys, vals); err != nil {
				t.Error(err)
				return
			}
			if err := s.PutBatch(ctx, keys, vals); err != nil { // release the tokens
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c := bsp.Stats()
	if c.RCUAppends != n {
		t.Fatalf("%d sessions first-touching %d keys appended %d records (%d abandoned), want %d",
			workers, n, c.RCUAppends, c.AbandonedAppends, n)
	}
	s, _ := bsp.NewSession()
	defer s.Close()
	want := make([]float32, 4)
	for _, k := range keys {
		clear(want)
		UniformInit(0.1, 42)(k, want)
		if ok, err := s.Peek(ctx, k, got); err != nil || !ok {
			t.Fatal(ok, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d holds %v, want its first value %v", k, got, want)
			}
		}
	}
}

// coldTable returns a table whose early keys live on disk only: a 64 KiB
// buffer holds ~1100 records of dim 8, and keys 1..6000 are written in
// order, embedding k being all float32(k).
func coldTable(t *testing.T) (*Table, *Session) {
	t.Helper()
	tbl, err := OpenTable(Options{
		Dir:            t.TempDir(),
		Dim:            8,
		StalenessBound: 4,
		MemoryBytes:    64 << 10,
		RecordsPerPage: 64,
		Init:           UniformInit(0.1, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	emb := make([]float32, 8)
	for k := uint64(1); k <= 6000; k++ {
		for i := range emb {
			emb[i] = float32(k)
		}
		if err := putOne(context.Background(), s, k, emb); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, s
}

// seq returns n consecutive keys starting at first.
func seq(first uint64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = first + uint64(i)
	}
	return keys
}

// TestLookaheadStorageBufferWarmsDiskRecords: one hint for a minibatch of
// cold keys, issued ahead of the read, turns every one of them into a copy
// at the tail, and the batch read that follows does not touch disk.
func TestLookaheadStorageBufferWarmsDiskRecords(t *testing.T) {
	tbl, s := coldTable(t)
	cold := seq(1, 256)
	before := tbl.Stats()
	s.Lookahead(cold)
	waitHintsIdle(t, tbl.hints)
	hinted := tbl.Stats()
	if got := hinted.PrefetchCopies - before.PrefetchCopies; got != int64(len(cold)) || hinted.PrefetchDropped != 0 {
		t.Fatalf("one hint of %d cold keys: %d copies, %d dropped", len(cold), got, hinted.PrefetchDropped)
	}
	embs := make([]float32, len(cold)*8)
	if err := s.GetBatch(context.Background(), cold, embs); err != nil {
		t.Fatal(err)
	}
	for i, k := range cold {
		if embs[i*8] != float32(k) {
			t.Fatalf("key %d: wrong value after prefetch", k)
		}
	}
	if got := tbl.Stats().DiskReads - hinted.DiskReads; got != 0 {
		t.Fatalf("GetBatch after the hint read disk %d times", got)
	}
}

func TestTableConcurrentTraining(t *testing.T) {
	ctx := context.Background()
	// Simulated async training: workers Get, compute, Put, with a bound.
	tbl := testTable(t, 8, 8)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s, err := tbl.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			r := util.NewRNG(seed)
			emb := make([]float32, 8)
			for i := 0; i < 500; i++ {
				k := r.Uint64n(200) + 1
				if err := getOne(ctx, s, k, emb); err != nil {
					t.Error(err)
					return
				}
				for j := range emb {
					emb[j] += 0.001
				}
				if err := putOne(ctx, s, k, emb); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestTableCheckpointRestore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := Options{
		Dir: dir, Dim: 4, StalenessBound: -1,
		MemoryBytes: 1 << 20, RecordsPerPage: 64,
	}
	tbl, err := OpenTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := tbl.NewSession()
	putOne(ctx, s, 1, []float32{1, 2, 3, 4})
	s.Close()
	if err := tbl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tbl.Close()

	tbl2, err := OpenTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	s2, _ := tbl2.NewSession()
	defer s2.Close()
	got := make([]float32, 4)
	if err := getOne(ctx, s2, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("restored embedding wrong: %v", got)
	}
}

func TestOpenTableValidation(t *testing.T) {
	if _, err := OpenTable(Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("Dim 0 accepted")
	}
	if _, err := OpenTable(Options{Dim: 4}); err == nil {
		t.Fatal("missing Dir accepted")
	}
}

func TestBoundModesSmoke(t *testing.T) {
	ctx := context.Background()
	for _, bound := range []int64{-1, 0, 4, faster.BoundAsync} {
		tbl := testTable(t, 4, bound)
		s, _ := tbl.NewSession()
		emb := make([]float32, 4)
		for k := uint64(1); k <= 50; k++ {
			if err := getOne(ctx, s, k, emb); err != nil {
				t.Fatalf("bound %d: %v", bound, err)
			}
			if err := putOne(ctx, s, k, emb); err != nil {
				t.Fatalf("bound %d: %v", bound, err)
			}
		}
		s.Close()
	}
}

// TestActiveSessions covers the serving layer's lifecycle hook: the count
// tracks opens and closes, and double-close does not double-count.
func TestActiveSessions(t *testing.T) {
	tbl := testTable(t, 4, -1)
	if n := tbl.Stats().ActiveSessions; n != 0 {
		t.Fatalf("fresh table has %d sessions", n)
	}
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := tbl.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		if n := tbl.Stats().ActiveSessions; n != int64(i+1) {
			t.Fatalf("after %d opens: count %d", i+1, n)
		}
	}
	sessions[0].Close()
	sessions[0].Close() // idempotent
	if n := tbl.Stats().ActiveSessions; n != 2 {
		t.Fatalf("after double-close: count %d", n)
	}
	for _, s := range sessions[1:] {
		s.Close()
	}
	if n := tbl.Stats().ActiveSessions; n != 0 {
		t.Fatalf("after all closes: count %d", n)
	}
}

// TestFirstTouchGetAllocs pins first touch at a hit's allocations: the key
// is created inside the engine pass by a callback bound once per session,
// and the initializer's float32 staging is session-owned.
func TestFirstTouchGetAllocs(t *testing.T) {
	tbl := testTable(t, 16, -1)
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	emb := make([]float32, 16)
	var one [1]uint64
	get := func(key uint64) {
		one[0] = key
		if err := s.GetBatch(context.Background(), one[:], emb); err != nil {
			t.Fatal(err)
		}
	}
	get(1) // grows the staging buffer once
	hit := testing.AllocsPerRun(200, func() { get(1) })
	next := uint64(1 << 20)
	first := testing.AllocsPerRun(200, func() { next++; get(next) })
	t.Logf("hit %.0f allocs/op, first touch %.0f allocs/op", hit, first)
	if first > hit {
		t.Fatalf("first-touch Get allocates %.0f/op, a hit %.0f/op", first, hit)
	}
}

// BenchmarkTableGetBatchBlocking times the read a trainer makes under a
// blocking bound (SSP(8), one shard, resident): a 256-key GetBatch in
// ascending key order, released by a PutBatch that is not timed. "present"
// reads keys that exist; "first-touch" reads 256 keys never seen before,
// which the batch creates. read-ns/key is the GetBatch alone.
func BenchmarkTableGetBatchBlocking(b *testing.B) {
	ctx := context.Background()
	const (
		dim   = 16
		batch = 256
	)
	for _, fresh := range []bool{false, true} {
		name := "present"
		if fresh {
			name = "first-touch"
		}
		b.Run(name, func(b *testing.B) {
			tbl, err := OpenTable(Options{
				Dir: b.TempDir(), Dim: dim, StalenessBound: 8,
				MemoryBytes: 256 << 20, ExpectedKeys: 1 << 20, Init: UniformInit(0.05, 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tbl.Close()
			s, err := tbl.NewSession()
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			keys, dst := make([]uint64, batch), make([]float32, batch*dim)
			next := uint64(0)
			draw := func() {
				for i := range keys {
					keys[i] = next + uint64(i)
				}
				if fresh {
					next += batch
				}
			}
			draw()
			if err := s.GetBatch(ctx, keys, dst); err != nil { // the present keys' first touch
				b.Fatal(err)
			}
			if err := s.PutBatch(ctx, keys, dst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var read time.Duration
			for b.Loop() {
				draw()
				t0 := time.Now()
				if err := s.GetBatch(ctx, keys, dst); err != nil {
					b.Fatal(err)
				}
				read += time.Since(t0)
				if err := s.PutBatch(ctx, keys, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(read.Nanoseconds())/float64(b.N*batch), "read-ns/key")
		})
	}
}
