package bptree

import (
	"bytes"
	"sync"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

func testTree(t *testing.T, vs int) *Store {
	t.Helper()
	s, err := Open(Config{
		Dir:       t.TempDir(),
		ValueSize: vs,
		PageSize:  512, // tiny pages force deep trees and many splits
		PoolPages: 16,  // tiny pool forces eviction
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

func bval(vs int, seed uint64) []byte {
	b := make([]byte, vs)
	r := util.NewRNG(seed)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestBPTreePutGet(t *testing.T) {
	s := testTree(t, 16)
	se, _ := s.NewSession()
	for k := uint64(1); k <= 100; k++ {
		if err := se.Put(k, bval(16, k)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 16)
	for k := uint64(1); k <= 100; k++ {
		found, err := se.Get(k, dst)
		if err != nil || !found || !bytes.Equal(dst, bval(16, k)) {
			t.Fatalf("key %d: found=%v err=%v", k, found, err)
		}
	}
}

func TestBPTreeSplitsAndDeepTree(t *testing.T) {
	s := testTree(t, 32)
	se, _ := s.NewSession()
	const n = 5000
	r := util.NewRNG(3)
	perm := r.Perm(n) // random insertion order stresses splits everywhere
	for _, i := range perm {
		k := uint64(i + 1)
		if err := se.Put(k, bval(32, k)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Height() < 3 {
		t.Fatalf("expected a deep tree, height = %d", s.Height())
	}
	dst := make([]byte, 32)
	for k := uint64(1); k <= n; k++ {
		found, err := se.Get(k, dst)
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v (height %d)", k, found, err, s.Height())
		}
		if !bytes.Equal(dst, bval(32, k)) {
			t.Fatalf("key %d corrupted", k)
		}
	}
}

func TestBPTreeOverwrite(t *testing.T) {
	s := testTree(t, 16)
	se, _ := s.NewSession()
	se.Put(5, bval(16, 1))
	se.Put(5, bval(16, 2))
	dst := make([]byte, 16)
	if found, _ := se.Get(5, dst); !found || !bytes.Equal(dst, bval(16, 2)) {
		t.Fatal("overwrite lost")
	}
}

func TestBPTreeDeleteAndReinsert(t *testing.T) {
	s := testTree(t, 16)
	se, _ := s.NewSession()
	se.Put(5, bval(16, 1))
	se.Delete(5)
	dst := make([]byte, 16)
	if found, _ := se.Get(5, dst); found {
		t.Fatal("delete ignored")
	}
	se.Put(5, bval(16, 3))
	if found, _ := se.Get(5, dst); !found || !bytes.Equal(dst, bval(16, 3)) {
		t.Fatal("reinsert lost")
	}
}

func TestBPTreeGetMissing(t *testing.T) {
	s := testTree(t, 16)
	se, _ := s.NewSession()
	dst := make([]byte, 16)
	if found, err := se.Get(42, dst); err != nil || found {
		t.Fatalf("missing key: found=%v err=%v", found, err)
	}
}

func TestBPTreePersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 16, PageSize: 512, PoolPages: 16}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se, _ := s.NewSession()
	for k := uint64(1); k <= 2000; k++ {
		se.Put(k, bval(16, k))
	}
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
	for k := uint64(1); k <= 2000; k++ {
		if found, _ := se2.Get(k, dst); !found || !bytes.Equal(dst, bval(16, k)) {
			t.Fatalf("key %d lost across restart", k)
		}
	}
}

func TestBPTreeConcurrentReadersAndWriters(t *testing.T) {
	s := testTree(t, 16)
	// Preload so readers have something to find.
	se, _ := s.NewSession()
	for k := uint64(1); k <= 1000; k++ {
		se.Put(k, bval(16, k))
	}
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses, _ := s.NewSession()
			defer ses.Close()
			r := util.NewRNG(uint64(w) + 9)
			dst := make([]byte, 16)
			for i := 0; i < 500; i++ {
				k := r.Uint64n(2000) + 1
				if r.Uint64n(2) == 0 {
					if err := ses.Put(k, bval(16, k)); err != nil {
						t.Error(err)
						return
					}
				} else {
					found, err := ses.Get(k, dst)
					if err != nil {
						t.Error(err)
						return
					}
					if found && !bytes.Equal(dst, bval(16, k)) {
						t.Errorf("key %d torn", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestBPTreeMatchesModelMap is the engine-equivalence property test.
func TestBPTreeMatchesModelMap(t *testing.T) {
	s := testTree(t, 12)
	se, _ := s.NewSession()
	model := make(map[uint64][]byte)
	r := util.NewRNG(0xdef)
	dst := make([]byte, 12)
	for i := 0; i < 15000; i++ {
		k := r.Uint64n(900) + 1
		switch r.Uint64n(6) {
		case 0, 1, 2:
			v := bval(12, r.Uint64())
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
	}
	for k := uint64(1); k <= 900; k++ {
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

// TestBPTreeSortedIterationInvariant walks leaf pages via next links and
// checks global key order — the core structural invariant.
func TestBPTreeSortedIterationInvariant(t *testing.T) {
	s := testTree(t, 8)
	se, _ := s.NewSession()
	r := util.NewRNG(11)
	inserted := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		k := r.Uint64n(100000) + 1
		se.Put(k, bval(8, k))
		inserted[k] = true
	}
	// Find the leftmost leaf.
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	id := s.root
	for {
		f, err := s.pager.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{data: f.data, vs: 8}
		if n.kind() == kindLeaf {
			s.pager.unpin(f, false)
			break
		}
		next := n.child(0, s.maxInternal)
		s.pager.unpin(f, false)
		id = next
	}
	var last uint64
	count := 0
	for id != 0 {
		f, err := s.pager.fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		n := node{data: f.data, vs: 8}
		for i := 0; i < n.count(); i++ {
			k := n.leafKey(i)
			if count > 0 && k <= last {
				t.Fatalf("keys out of order: %d after %d", k, last)
			}
			if !inserted[k] {
				t.Fatalf("phantom key %d", k)
			}
			last = k
			count++
		}
		next := n.next()
		s.pager.unpin(f, false)
		id = next
	}
	if count != len(inserted) {
		t.Fatalf("leaf scan found %d keys, inserted %d", count, len(inserted))
	}
}

func TestBPTreeValueSizeMismatchOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, ValueSize: 8, PageSize: 512, PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(Config{Dir: dir, ValueSize: 16, PageSize: 512, PoolPages: 16}); err == nil {
		t.Fatal("ValueSize mismatch accepted")
	}
}

func TestBPTreeConfigValidation(t *testing.T) {
	if _, err := Open(Config{ValueSize: 8}); err == nil {
		t.Fatal("missing Dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), ValueSize: 4096, PageSize: 128}); err == nil {
		t.Fatal("oversize values accepted")
	}
}

// TestSessionScratchAllocs: Prefetch reads into, and Delete writes its
// tombstone from, the session's own scratch, so neither allocates — the
// lookahead pool calls Prefetch once per hinted key.
func TestSessionScratchAllocs(t *testing.T) {
	const vs = 32
	s := testTree(t, vs)
	se, _ := s.NewSession()
	val := make([]byte, vs)
	for k := uint64(0); k < 8; k++ {
		if err := se.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { se.Prefetch(3) }); n != 0 {
		t.Fatalf("Prefetch allocates %.0f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { se.Delete(3) }); n != 0 {
		t.Fatalf("Delete allocates %.0f times per call", n)
	}
}
