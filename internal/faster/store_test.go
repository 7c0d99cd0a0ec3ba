package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

// testStore opens a tiny store whose in-memory window holds memPages pages
// of rpp records each, forcing eviction quickly.
func testStore(t *testing.T, valueSize, rpp, memPages, mutPages int, bound int64) *Store {
	t.Helper()
	st, err := Open(Config{
		Dir:            t.TempDir(),
		ValueSize:      valueSize,
		RecordsPerPage: rpp,
		MemPages:       memPages,
		MutablePages:   mutPages,
		StalenessBound: bound,
		ExpectedKeys:   1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func val(vs int, seed uint64) []byte {
	b := make([]byte, vs)
	r := util.NewRNG(seed)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestPutGetRoundTrip(t *testing.T) {
	st := testStore(t, 32, 64, 8, 2, -1)
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for k := uint64(1); k <= 100; k++ {
		if err := s.Put(k, val(32, k)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 32)
	for k := uint64(1); k <= 100; k++ {
		found, err := s.Get(k, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("key %d not found", k)
		}
		if !bytes.Equal(dst, val(32, k)) {
			t.Fatalf("key %d value mismatch", k)
		}
	}
}

func TestGetMissing(t *testing.T) {
	st := testStore(t, 16, 64, 8, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	dst := make([]byte, 16)
	found, err := s.Get(12345, dst)
	if err != nil || found {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}
}

func TestValueSizeValidation(t *testing.T) {
	st := testStore(t, 16, 64, 8, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	if err := s.Put(1, make([]byte, 15)); err != ErrValueSize {
		t.Fatalf("Put wrong size: %v", err)
	}
	if _, err := s.Get(1, make([]byte, 17)); err != ErrValueSize {
		t.Fatalf("Get wrong size: %v", err)
	}
}

func TestOverwriteInPlace(t *testing.T) {
	st := testStore(t, 16, 64, 8, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	if err := s.Put(7, val(16, 1)); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	if err := s.Put(7, val(16, 2)); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.InPlaceUpdates-before.InPlaceUpdates != 1 {
		t.Fatalf("expected one in-place update, got %d", after.InPlaceUpdates-before.InPlaceUpdates)
	}
	dst := make([]byte, 16)
	if found, _ := s.Get(7, dst); !found || !bytes.Equal(dst, val(16, 2)) {
		t.Fatal("overwrite not visible")
	}
}

func TestDelete(t *testing.T) {
	st := testStore(t, 16, 64, 8, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	s.Put(9, val(16, 9))
	if err := s.Delete(9); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 16)
	if found, _ := s.Get(9, dst); found {
		t.Fatal("deleted key still found")
	}
	// Re-insert after delete.
	s.Put(9, val(16, 10))
	if found, _ := s.Get(9, dst); !found || !bytes.Equal(dst, val(16, 10)) {
		t.Fatal("re-insert after delete failed")
	}
}

func TestDeleteMissingIsNoop(t *testing.T) {
	st := testStore(t, 16, 64, 8, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	if err := s.Delete(404); err != nil {
		t.Fatal(err)
	}
}

func TestRMW(t *testing.T) {
	st := testStore(t, 8, 64, 8, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	inc := func(cur []byte, exists bool) bool {
		v := binary.LittleEndian.Uint64(cur)
		binary.LittleEndian.PutUint64(cur, v+1)
		return true
	}
	for i := 0; i < 100; i++ {
		if err := s.RMW(1, inc); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 8)
	if found, _ := s.Get(1, dst); !found {
		t.Fatal("RMW key missing")
	}
	if v := binary.LittleEndian.Uint64(dst); v != 100 {
		t.Fatalf("RMW counter = %d, want 100", v)
	}
}

// TestRMWDecline pins the declining callback: an fn that returns false
// leaves an absent key absent and an existing record — mutable, read-only
// or on disk — byte-identical, appending nothing and releasing no token.
func TestRMWDecline(t *testing.T) {
	const vs = 16
	st := testStore(t, vs, 32, 6, 2, 4)
	s, _ := st.NewSession()
	defer s.Close()
	decline := func(cur []byte, exists bool) bool { return false }

	if err := s.RMW(9999, decline); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, vs)
	if found, _ := s.Peek(9999, dst); found {
		t.Fatal("a declined RMW created the key")
	}

	const n = 2000 // >> 6*32 in-memory slots: key 1 ends on disk, key n mutable
	for k := uint64(1); k <= n; k++ {
		if err := s.Put(k, val(vs, k)); err != nil {
			t.Fatal(err)
		}
	}
	if found, err := s.Get(n, dst); err != nil || !found { // hold one token on the mutable record
		t.Fatalf("get: found=%v err=%v", found, err)
	}
	before := st.Stats()
	for _, k := range []uint64{1, n / 2, n - 100, n} {
		if err := s.RMW(k, decline); err != nil {
			t.Fatal(err)
		}
		if found, _ := s.Peek(k, dst); !found || !bytes.Equal(dst, val(vs, k)) {
			t.Fatalf("key %d changed under a declined RMW", k)
		}
	}
	after := st.Stats()
	if after.RCUAppends != before.RCUAppends || after.InPlaceUpdates != before.InPlaceUpdates {
		t.Fatalf("a declined RMW wrote: appends %d→%d, in-place %d→%d",
			before.RCUAppends, after.RCUAppends, before.InPlaceUpdates, after.InPlaceUpdates)
	}
	// The token the Get took is still held: a write releases exactly one.
	hit, _ := s.findKey(n, false)
	if got := Staleness(hit.f.hdrs[hit.slot].Load()); got != 1 {
		t.Fatalf("staleness after a declined RMW = %d, want the held token (1)", got)
	}
}

// TestEvictionToDisk writes far more records than fit in memory and checks
// everything remains readable (the cold path exercises disk reads).
func TestEvictionToDisk(t *testing.T) {
	const vs = 16
	st := testStore(t, vs, 32, 6, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()

	const n = 2000 // 2000 records >> 6*32 = 192 in-memory slots
	for k := uint64(1); k <= n; k++ {
		if err := s.Put(k, val(vs, k)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().FlushedPages == 0 {
		t.Fatal("expected pages to be flushed")
	}
	dst := make([]byte, vs)
	for k := uint64(1); k <= n; k++ {
		found, err := s.Get(k, dst)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !found {
			t.Fatalf("key %d lost after eviction", k)
		}
		if !bytes.Equal(dst, val(vs, k)) {
			t.Fatalf("key %d corrupted after eviction", k)
		}
	}
	if st.Stats().DiskReads == 0 {
		t.Fatal("expected some reads to hit disk")
	}
}

// TestUpdateAfterEviction updates cold keys, forcing the RCU append path.
// TestResident: a fresh store is resident, stops being so at its first
// evicted page and never is again — not after more writes, and not after a
// checkpoint and reopen, which leaves everything it recovered on disk.
func TestResident(t *testing.T) {
	cfg := Config{
		Dir: t.TempDir(), ValueSize: 16, RecordsPerPage: 16,
		MemPages: 4, MutablePages: 2, StalenessBound: -1, ExpectedKeys: 1 << 10,
	}
	st := mustOpen(t, cfg)
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resident() {
		t.Fatal("fresh store is not resident")
	}
	dst := make([]byte, 16)
	flipped := uint64(0)
	for k := uint64(1); k <= 400; k++ {
		if err := s.Put(k, val(16, k)); err != nil {
			t.Fatal(err)
		}
		switch {
		case flipped == 0 && !st.Resident():
			flipped = k
		case flipped != 0 && st.Resident():
			t.Fatalf("store became resident again at key %d (first eviction at %d)", k, flipped)
		}
		if flipped == 0 {
			// While resident, no read may touch the file.
			if _, err := s.Get(1, dst); err != nil {
				t.Fatal(err)
			}
			if n := st.Stats().DiskReads; n != 0 {
				t.Fatalf("resident store did %d disk reads", n)
			}
		}
	}
	// 4 pages of 16 records hold addresses 1..63; the 64th append evicts.
	if flipped != 64 {
		t.Fatalf("store left residency at key %d, want 64 (the first evicted page)", flipped)
	}
	if found, err := s.Get(1, dst); err != nil || !found {
		t.Fatalf("get evicted key: found=%v err=%v", found, err)
	}
	if st.Stats().DiskReads == 0 {
		t.Fatal("a spilled store read an evicted key without touching disk")
	}
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A store that fit in memory, checkpointed and reopened: not resident.
	small := cfg
	small.Dir = t.TempDir()
	st2 := mustOpen(t, small)
	mustPut(t, st2, 1, val(16, 1))
	if !st2.Resident() {
		t.Fatal("one-record store is not resident")
	}
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{cfg, small} {
		re := mustOpen(t, c)
		if re.Resident() {
			t.Fatalf("store reopened from %s reports resident", c.Dir)
		}
		re.Close()
	}
}

// TestColdReadDoesNotAllocate: a disk read goes through the session's own
// record buffer.
func TestColdReadDoesNotAllocate(t *testing.T) {
	st := testStore(t, 16, 16, 4, 2, -1)
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := uint64(1); k <= 400; k++ {
		if err := s.Put(k, val(16, k)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 16)
	before := st.Stats().DiskReads
	allocs := testing.AllocsPerRun(100, func() {
		if found, err := s.Peek(1, dst); err != nil || !found {
			t.Fatalf("peek: found=%v err=%v", found, err)
		}
	})
	if st.Stats().DiskReads == before {
		t.Fatal("key 1 was not read from disk")
	}
	if allocs != 0 {
		t.Fatalf("cold read allocates %.0f/op, want 0", allocs)
	}
}

func TestUpdateAfterEviction(t *testing.T) {
	const vs = 16
	st := testStore(t, vs, 32, 6, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	const n = 1000
	for k := uint64(1); k <= n; k++ {
		s.Put(k, val(vs, k))
	}
	// Key 1 is long evicted; updating it must append a fresh version.
	before := st.Stats()
	if err := s.Put(1, val(vs, 777)); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.RCUAppends-before.RCUAppends == 0 {
		t.Fatal("expected an RCU append for a cold key")
	}
	dst := make([]byte, vs)
	if found, _ := s.Get(1, dst); !found || !bytes.Equal(dst, val(vs, 777)) {
		t.Fatal("cold update lost")
	}
}

func TestPeekDoesNotCopyToTail(t *testing.T) {
	const vs = 16
	st := testStore(t, vs, 32, 6, 2, 4) // BSC enabled
	s, _ := st.NewSession()
	defer s.Close()
	const n = 1000
	for k := uint64(1); k <= n; k++ {
		s.Put(k, val(vs, k))
	}
	tail := st.TailAddr()
	dst := make([]byte, vs)
	if found, err := s.Peek(1, dst); err != nil || !found {
		t.Fatalf("peek: %v %v", found, err)
	}
	if !bytes.Equal(dst, val(vs, 1)) {
		t.Fatal("peek value mismatch")
	}
	if st.TailAddr() != tail {
		t.Fatal("Peek must not allocate")
	}
}

// TestStalenessProtocol drives the vector clock directly: with bound 0, a
// second Get on a key with an outstanding read must block until Put.
func TestStalenessGetIncrementsPutDecrements(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 8, 2, 10)
	s, _ := st.NewSession()
	defer s.Close()
	s.Put(5, val(vs, 5)) // staleness 0 (fresh insert)
	dst := make([]byte, vs)
	for i := 0; i < 3; i++ {
		if found, _ := s.Get(5, dst); !found {
			t.Fatal("get failed")
		}
	}
	if stal := recordStaleness(t, st, s, 5); stal != 3 {
		t.Fatalf("staleness after 3 gets = %d, want 3", stal)
	}
	s.Put(5, val(vs, 6))
	if stal := recordStaleness(t, st, s, 5); stal != 2 {
		t.Fatalf("staleness after put = %d, want 2", stal)
	}
}

// recordStaleness inspects the header of key's newest version.
func recordStaleness(t *testing.T, st *Store, s *Session, key uint64) uint64 {
	t.Helper()
	s.es.Protect()
	defer s.es.Unprotect()
	hit, err := s.findKey(key, false)
	if err != nil {
		t.Fatal(err)
	}
	if hit.addr == InvalidAddr {
		t.Fatal("key missing")
	}
	if hit.reg == regionDisk {
		return Staleness(hit.diskRec.hdr)
	}
	return Staleness(hit.f.hdrs[hit.slot].Load())
}

func TestStalenessBoundBlocksGet(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 8, 2, 1)
	s, _ := st.NewSession()
	defer s.Close()
	s.Put(5, val(vs, 5))
	dst := make([]byte, vs)
	s.Get(5, dst) // staleness 0 -> 1
	s.Get(5, dst) // staleness 1 == bound -> allowed -> 2

	// A third Get would exceed the bound; run it concurrently and release it
	// with a Put from this goroutine.
	done := make(chan struct{})
	go func() {
		s2, _ := st.NewSession()
		defer s2.Close()
		buf := make([]byte, vs)
		s2.Get(5, buf)
		close(done)
	}()
	// Wait until the reader has demonstrably hit the bound at least once.
	for st.Stats().StalenessWaits == 0 {
		select {
		case <-done:
			t.Fatal("Get should have blocked on the staleness bound")
		default:
		}
	}
	s.Put(5, val(vs, 6)) // staleness 2 -> 1, unblocking the reader
	<-done
}

func TestAsyncBoundNeverBlocks(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 8, 2, BoundAsync)
	s, _ := st.NewSession()
	defer s.Close()
	s.Put(5, val(vs, 5))
	dst := make([]byte, vs)
	for i := 0; i < 1000; i++ {
		if found, _ := s.Get(5, dst); !found {
			t.Fatal("get failed")
		}
	}
	if stal := recordStaleness(t, st, s, 5); stal != 1000 {
		t.Fatalf("staleness = %d, want 1000", stal)
	}
}

func TestPrefetchCopiesDiskRecordToTail(t *testing.T) {
	const vs = 16
	st := testStore(t, vs, 32, 6, 2, 4)
	s, _ := st.NewSession()
	defer s.Close()
	const n = 1000
	for k := uint64(1); k <= n; k++ {
		s.Put(k, val(vs, k))
	}
	// Key 1 is on disk now.
	copied, err := s.Prefetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if !copied {
		t.Fatal("expected prefetch to copy a disk-resident record")
	}
	// A second prefetch finds it in memory and does nothing.
	copied, _ = s.Prefetch(1)
	if copied {
		t.Fatal("prefetch should skip in-memory records")
	}
	// The subsequent Get must be served from memory.
	before := st.Stats()
	dst := make([]byte, vs)
	if found, _ := s.Get(1, dst); !found || !bytes.Equal(dst, val(vs, 1)) {
		t.Fatal("value wrong after prefetch")
	}
	after := st.Stats()
	if after.DiskReads != before.DiskReads {
		t.Fatal("Get after prefetch should not touch disk")
	}
}

func TestPrefetchMissingKey(t *testing.T) {
	st := testStore(t, 16, 32, 6, 2, 4)
	s, _ := st.NewSession()
	defer s.Close()
	if copied, err := s.Prefetch(999); err != nil || copied {
		t.Fatalf("prefetch of missing key: copied=%v err=%v", copied, err)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	const vs = 16
	st := testStore(t, vs, 64, 10, 3, -1)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := st.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			dst := make([]byte, vs)
			for i := 0; i < perWorker; i++ {
				k := uint64(w*perWorker + i + 1)
				if err := s.Put(k, val(vs, k)); err != nil {
					t.Error(err)
					return
				}
				if found, err := s.Get(k, dst); err != nil || !found {
					t.Errorf("key %d: found=%v err=%v", k, found, err)
					return
				}
				if !bytes.Equal(dst, val(vs, k)) {
					t.Errorf("key %d torn", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentRMWCounters hammers shared counters from many goroutines;
// the total must be exact (atomic read-modify-write, no lost updates).
func TestConcurrentRMWCounters(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 10, 3, -1)
	const workers = 8
	const iters = 300
	const keys = 5
	inc := func(cur []byte, exists bool) bool {
		binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+1)
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s, _ := st.NewSession()
			defer s.Close()
			r := util.NewRNG(uint64(seed))
			for i := 0; i < iters; i++ {
				if err := s.RMW(uint64(r.Uint64n(keys)+1), inc); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s, _ := st.NewSession()
	defer s.Close()
	total := uint64(0)
	dst := make([]byte, vs)
	for k := uint64(1); k <= keys; k++ {
		if found, _ := s.Get(k, dst); found {
			total += binary.LittleEndian.Uint64(dst)
		}
	}
	if total != workers*iters {
		t.Fatalf("lost updates: total = %d, want %d", total, workers*iters)
	}
}

// TestConcurrentEvictionStress mixes heavy writes (forcing page turnover)
// with reads across a hot/cold key split under the race detector.
func TestConcurrentEvictionStress(t *testing.T) {
	const vs = 16
	st := testStore(t, vs, 32, 6, 2, BoundAsync)
	const workers = 6
	const iters = 800
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s, _ := st.NewSession()
			defer s.Close()
			r := util.NewRNG(uint64(seed) + 100)
			dst := make([]byte, vs)
			for i := 0; i < iters; i++ {
				k := r.Uint64n(500) + 1
				switch r.Uint64n(3) {
				case 0:
					if err := s.Put(k, val(vs, k)); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.Get(k, dst); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.Prefetch(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every key that was ever written must still resolve to its seed value.
	s, _ := st.NewSession()
	defer s.Close()
	dst := make([]byte, vs)
	for k := uint64(1); k <= 500; k++ {
		found, err := s.Get(k, dst)
		if err != nil {
			t.Fatal(err)
		}
		if found && !bytes.Equal(dst, val(vs, k)) {
			t.Fatalf("key %d corrupted", k)
		}
	}
}

func TestSessionLimit(t *testing.T) {
	st, err := Open(Config{
		Dir: t.TempDir(), ValueSize: 8, RecordsPerPage: 16, MemPages: 4,
		MutablePages: 1, StalenessBound: -1, MaxSessions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.NewSession(); err == nil {
		t.Fatal("expected session limit error")
	}
	a.Close()
	if _, err := st.NewSession(); err != nil {
		t.Fatal("slot should be reusable")
	}
	_ = b
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(Config{Dir: t.TempDir(), ValueSize: 0}); err == nil {
		t.Fatal("ValueSize 0 should fail")
	}
	if _, err := Open(Config{Dir: t.TempDir(), ValueSize: 8, MemPages: 4, MutablePages: 4}); err == nil {
		t.Fatal("MutablePages == MemPages should fail")
	}
	if _, err := Open(Config{ValueSize: 8}); err == nil {
		t.Fatal("missing Dir should fail")
	}
	if _, err := Open(Config{Dir: t.TempDir(), ValueSize: 8, RecordsPerPage: 33}); err == nil {
		t.Fatal("non-power-of-two RecordsPerPage should fail")
	}
}

func TestManyTablesSimultaneously(t *testing.T) {
	// Multiple independent stores (one per embedding table) in one process.
	stores := make([]*Store, 4)
	for i := range stores {
		var err error
		stores[i], err = Open(Config{
			Dir: t.TempDir(), ValueSize: 8 * (i + 1), RecordsPerPage: 32,
			MemPages: 4, MutablePages: 1, StalenessBound: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer stores[i].Close()
	}
	for i, st := range stores {
		s, _ := st.NewSession()
		v := val(8*(i+1), uint64(i))
		if err := s.Put(1, v); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 8*(i+1))
		if found, _ := s.Get(1, dst); !found || !bytes.Equal(dst, v) {
			t.Fatalf("store %d: value mismatch", i)
		}
		s.Close()
	}
}

func ExampleStore() {
	st, _ := Open(Config{
		Dir:            "/tmp/faster-example",
		ValueSize:      8,
		StalenessBound: -1,
	})
	defer st.Close()
	s, _ := st.NewSession()
	defer s.Close()
	s.Put(1, []byte("8 bytes!"))
	dst := make([]byte, 8)
	s.Get(1, dst)
	fmt.Println(string(dst))
	// Output: 8 bytes!
}
