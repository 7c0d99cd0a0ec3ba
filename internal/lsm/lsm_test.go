package lsm

import (
	"bytes"
	"sync"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

func testLSM(t *testing.T, vs int) *Store {
	t.Helper()
	s, err := Open(Config{
		Dir:           t.TempDir(),
		ValueSize:     vs,
		MemtableBytes: 8 << 10, // tiny, to force flushes
		CacheBytes:    32 << 10,
		L0Limit:       3,
		TableEntries:  256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func lval(vs int, seed uint64) []byte {
	b := make([]byte, vs)
	r := util.NewRNG(seed)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestLSMPutGet(t *testing.T) {
	s := testLSM(t, 16)
	se, _ := s.NewSession()
	for k := uint64(1); k <= 100; k++ {
		if err := se.Put(k, lval(16, k)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 16)
	for k := uint64(1); k <= 100; k++ {
		found, err := se.Get(k, dst)
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", k, found, err)
		}
		if !bytes.Equal(dst, lval(16, k)) {
			t.Fatalf("key %d mismatch", k)
		}
	}
}

func TestLSMOverwriteAndDelete(t *testing.T) {
	s := testLSM(t, 16)
	se, _ := s.NewSession()
	se.Put(1, lval(16, 1))
	se.Put(1, lval(16, 2))
	dst := make([]byte, 16)
	if found, _ := se.Get(1, dst); !found || !bytes.Equal(dst, lval(16, 2)) {
		t.Fatal("overwrite lost")
	}
	se.Delete(1)
	if found, _ := se.Get(1, dst); found {
		t.Fatal("delete ignored")
	}
	se.Put(1, lval(16, 3))
	if found, _ := se.Get(1, dst); !found || !bytes.Equal(dst, lval(16, 3)) {
		t.Fatal("reinsert after delete lost")
	}
}

func TestLSMFlushAndCompaction(t *testing.T) {
	s := testLSM(t, 64)
	se, _ := s.NewSession()
	const n = 5000 // far beyond the 8 KiB memtable: many flushes + compactions
	for k := uint64(1); k <= n; k++ {
		if err := se.Put(k, lval(64, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	v := s.ver.Load()
	if len(v.levels) < 2 {
		t.Fatalf("expected compaction to create deeper levels, have %d", len(v.levels))
	}
	dst := make([]byte, 64)
	for k := uint64(1); k <= n; k++ {
		found, err := se.Get(k, dst)
		if err != nil || !found {
			t.Fatalf("key %d after compaction: found=%v err=%v", k, found, err)
		}
		if !bytes.Equal(dst, lval(64, k)) {
			t.Fatalf("key %d corrupted by compaction", k)
		}
	}
	// Level 1+ must be key-disjoint and sorted.
	for li := 1; li < len(v.levels); li++ {
		lvl := v.levels[li]
		for i := 1; i < len(lvl); i++ {
			if lvl[i-1].maxKey >= lvl[i].minKey {
				t.Fatalf("level %d tables overlap: [%d..%d] then [%d..%d]",
					li, lvl[i-1].minKey, lvl[i-1].maxKey, lvl[i].minKey, lvl[i].maxKey)
			}
		}
	}
}

func TestLSMNewestVersionWinsAcrossLevels(t *testing.T) {
	s := testLSM(t, 16)
	se, _ := s.NewSession()
	// Round 1 pushes old versions deep.
	for k := uint64(1); k <= 1000; k++ {
		se.Put(k, lval(16, k))
	}
	s.Flush()
	// Round 2 overwrites a subset.
	for k := uint64(1); k <= 100; k++ {
		se.Put(k, lval(16, k+7777))
	}
	s.Flush()
	dst := make([]byte, 16)
	for k := uint64(1); k <= 1000; k++ {
		want := lval(16, k)
		if k <= 100 {
			want = lval(16, k+7777)
		}
		if found, _ := se.Get(k, dst); !found || !bytes.Equal(dst, want) {
			t.Fatalf("key %d: stale version surfaced", k)
		}
	}
}

func TestLSMRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 16, MemtableBytes: 8 << 10, L0Limit: 3, TableEntries: 256}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se, _ := s.NewSession()
	for k := uint64(1); k <= 500; k++ {
		se.Put(k, lval(16, k))
	}
	se.Delete(42)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	se2, _ := s2.NewSession()
	dst := make([]byte, 16)
	for k := uint64(1); k <= 500; k++ {
		found, err := se2.Get(k, dst)
		if err != nil {
			t.Fatal(err)
		}
		if k == 42 {
			if found {
				t.Fatal("deleted key resurrected")
			}
			continue
		}
		if !found || !bytes.Equal(dst, lval(16, k)) {
			t.Fatalf("key %d lost in restart", k)
		}
	}
}

func TestLSMWALReplayWithoutCleanClose(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, MemtableBytes: 1 << 20, L0Limit: 4}
	s, _ := Open(cfg)
	se, _ := s.NewSession()
	for k := uint64(1); k <= 50; k++ {
		se.Put(k, lval(8, k))
	}
	// Simulate a crash: abandon the store without Close (the WAL remains).
	s.wal.Sync()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	se2, _ := s2.NewSession()
	dst := make([]byte, 8)
	for k := uint64(1); k <= 50; k++ {
		if found, _ := se2.Get(k, dst); !found || !bytes.Equal(dst, lval(8, k)) {
			t.Fatalf("key %d lost across crash", k)
		}
	}
	s.wal.Close() // release the abandoned handle
}

func TestLSMConcurrent(t *testing.T) {
	s := testLSM(t, 16)
	const workers = 6
	const perWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			se, _ := s.NewSession()
			defer se.Close()
			dst := make([]byte, 16)
			for i := 0; i < perWorker; i++ {
				k := uint64(w*perWorker + i + 1)
				if err := se.Put(k, lval(16, k)); err != nil {
					t.Error(err)
					return
				}
				if found, err := se.Get(k, dst); err != nil || !found || !bytes.Equal(dst, lval(16, k)) {
					t.Errorf("key %d: read-own-write failed (found=%v err=%v)", k, found, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLSMMatchesModelMap is the engine-equivalence property test.
func TestLSMMatchesModelMap(t *testing.T) {
	s := testLSM(t, 12)
	se, _ := s.NewSession()
	model := make(map[uint64][]byte)
	r := util.NewRNG(0xabc)
	dst := make([]byte, 12)
	for i := 0; i < 15000; i++ {
		k := r.Uint64n(600) + 1
		switch r.Uint64n(6) {
		case 0, 1, 2:
			v := lval(12, r.Uint64())
			if err := se.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 3:
			if err := se.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		default:
			found, err := se.Get(k, dst)
			if err != nil {
				t.Fatal(err)
			}
			mv, ok := model[k]
			if found != ok {
				t.Fatalf("op %d key %d: found=%v model=%v", i, k, found, ok)
			}
			if found && !bytes.Equal(dst, mv) {
				t.Fatalf("op %d key %d: value mismatch", i, k)
			}
		}
		if i%5000 == 4999 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := uint64(1); k <= 600; k++ {
		found, err := se.Get(k, dst)
		if err != nil {
			t.Fatal(err)
		}
		mv, ok := model[k]
		if found != ok || (found && !bytes.Equal(dst, mv)) {
			t.Fatalf("final key %d mismatch", k)
		}
	}
}

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	keys := make([]uint64, 5000)
	r := util.NewRNG(7)
	filter := make([]byte, 5000*bloomBitsPerKey/8)
	for i := range keys {
		keys[i] = r.Uint64()
		bloomSet(filter, keys[i])
	}
	for _, k := range keys {
		if !bloomTest(filter, k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
	// False positive rate sanity: should be well under 10%.
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if bloomTest(filter, r.Uint64()) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.1 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestLSMCacheServesRepeatedReads(t *testing.T) {
	s := testLSM(t, 32)
	se, _ := s.NewSession()
	for k := uint64(1); k <= 2000; k++ {
		se.Put(k, lval(32, k))
	}
	s.Flush()
	dst := make([]byte, 32)
	se.Get(77, dst)
	h0, _ := s.CacheStats()
	se.Get(77, dst) // same block: must hit cache
	h1, _ := s.CacheStats()
	if h1 <= h0 {
		t.Fatal("expected a cache hit on repeated read")
	}
}

func TestLSMValueSizeValidation(t *testing.T) {
	s := testLSM(t, 16)
	se, _ := s.NewSession()
	if err := se.Put(1, make([]byte, 8)); err == nil {
		t.Fatal("short value accepted")
	}
	if _, err := se.Get(1, make([]byte, 8)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestLSMConfigValidation(t *testing.T) {
	if _, err := Open(Config{ValueSize: 8}); err == nil {
		t.Fatal("missing Dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("missing ValueSize accepted")
	}
}

// TestSessionScratchAllocs: Prefetch reads into, and Delete writes its
// tombstone from, the session's own scratch. The lookahead pool calls
// Prefetch per hinted key, so it must not allocate; Delete may only pay
// what the store's write path pays for any Put (the WAL record).
func TestSessionScratchAllocs(t *testing.T) {
	const vs = 32
	s := testLSM(t, vs)
	se, _ := s.NewSession()
	val := lval(vs, 1)
	for k := uint64(0); k < 8; k++ {
		if err := se.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { se.Prefetch(3) }); n != 0 {
		t.Fatalf("Prefetch allocates %.0f times per call", n)
	}
	put := testing.AllocsPerRun(100, func() { se.Put(3, val) })
	if del := testing.AllocsPerRun(100, func() { se.Delete(3) }); del > put {
		t.Fatalf("Delete allocates %.0f times per call, Put of the same key %.0f", del, put)
	}
}
