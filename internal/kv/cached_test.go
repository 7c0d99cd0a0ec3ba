package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/llm-db/mlkv-go/internal/faster"
)

// openCachedPair opens one sharded FASTER store raw and one with a hot
// tier of entries (ShardedConfig.CacheEntries), both under the given
// bound: both spilled to disk (a few pages of memory, filler written until
// the first eviction), which is when reads go through the tier, or both
// resident with memory to spare.
func openCachedPair(t *testing.T, bound int64, entries int, spilled bool) (raw, cached Store) {
	t.Helper()
	open := func(dir string, entries int) Store {
		cfg := spillConfig(dir, 2, 16, bound)
		cfg.CacheEntries = entries
		if !spilled {
			cfg.MemoryBytes = 1 << 20
		}
		st, err := OpenEngine(EngineFaster, cfg, "mlkv")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if spilled {
			spill(t, st)
		}
		return st
	}
	return open(t.TempDir(), 0), open(t.TempDir(), entries)
}

// TestCachedStoreEquivalence drives an identical operation sequence
// through a raw store and one with a hot tier and requires identical
// observable results — the cache must be invisible except for speed. On a
// spilled pair the tier must have served reads; on a resident pair it must
// not even have been looked at, while the writes still landed in it.
func TestCachedStoreEquivalence(t *testing.T) {
	for _, spilled := range []bool{true, false} {
		t.Run(fmt.Sprintf("spilled=%v", spilled), func(t *testing.T) {
			testCachedStoreEquivalence(t, spilled)
		})
	}
}

func testCachedStoreEquivalence(t *testing.T, spilled bool) {
	raw, cached := openCachedPair(t, faster.BoundAsync, 256, spilled)
	rs, err := raw.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	cs, err := cached.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	val := func(k uint64, gen byte) []byte {
		v := make([]byte, 16)
		for i := range v {
			v[i] = byte(k) + gen
		}
		return v
	}
	for k := uint64(1); k <= 64; k++ {
		if err := rs.Put(k, val(k, 0)); err != nil {
			t.Fatal(err)
		}
		if err := cs.Put(k, val(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := make([]byte, 16), make([]byte, 16)
	for round := 0; round < 3; round++ {
		for k := uint64(1); k <= 64; k++ {
			fa, erra := rs.Get(k, a)
			fb, errb := cs.Get(k, b)
			if erra != nil || errb != nil || fa != fb || !bytes.Equal(a, b) {
				t.Fatalf("round %d key %d diverged: %v/%v %v/%v", round, k, fa, fb, erra, errb)
			}
		}
		// Overwrite half the keys: write-through must keep reads fresh.
		for k := uint64(1); k <= 32; k++ {
			if err := rs.Put(k, val(k, byte(round+1))); err != nil {
				t.Fatal(err)
			}
			if err := cs.Put(k, val(k, byte(round+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Delete invalidates.
	if err := rs.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := cs.Delete(7); err != nil {
		t.Fatal(err)
	}
	fa, _ := rs.Get(7, a)
	fb, _ := cs.Get(7, b)
	if fa || fb {
		t.Fatalf("deleted key found: raw=%v cached=%v", fa, fb)
	}
	st := cached.Stats()
	if spilled {
		if cached.Resident() || st.DiskReads == 0 {
			t.Fatalf("fixture did not spill: Resident()=%v, %d disk reads", cached.Resident(), st.DiskReads)
		}
		if st.CacheHits == 0 {
			t.Fatal("no reads were served from the tier")
		}
		return
	}
	if !cached.Resident() {
		t.Fatal("fixture spilled")
	}
	if n := st.CacheHits + st.CacheMisses + st.CacheEvictions; n != 0 {
		t.Fatalf("resident store consulted the tier: %d hits, %d misses, %d evictions",
			st.CacheHits, st.CacheMisses, st.CacheEvictions)
	}
	if n := cached.(*shardedStore).tier.Len(); n == 0 {
		t.Fatal("writes to a resident store did not land in the tier")
	}
}

// TestCachedStoreBatchPartialHits pins the sweep/compact/scatter path:
// a batch where some keys are tier-resident, some engine-resident, and
// some absent must land every value and found flag in the right slot.
func TestCachedStoreBatchPartialHits(t *testing.T) {
	_, cached := openCachedPair(t, faster.BoundAsync, 256, true)
	s, err := cached.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := make([]byte, 16)
	// Keys 1..12 are tier-resident via write-through; 100/101 are absent,
	// so the batch mixes tier hits with engine misses and the compacted
	// engine read must scatter back to the right slots.
	for k := uint64(1); k <= 12; k++ {
		for i := range v {
			v[i] = byte(k)
		}
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	keys := []uint64{3, 100, 7, 101, 12, 1}
	vals := make([]byte, len(keys)*16)
	found := make([]bool, len(keys))
	before := cached.Stats()
	if err := SessionGetBatch(s, 16, keys, vals, found); err != nil {
		t.Fatal(err)
	}
	if d := cached.Stats().Sub(before); d.CacheHits != 4 || d.CacheMisses != 2 {
		t.Fatalf("batch of 4 tier-resident and 2 absent keys: %d hits, %d misses", d.CacheHits, d.CacheMisses)
	}
	for i, k := range keys {
		slot := vals[i*16 : (i+1)*16]
		if k >= 100 {
			if found[i] {
				t.Fatalf("absent key %d reported found", k)
			}
			for _, bv := range slot {
				if bv != 0 {
					t.Fatalf("absent key %d slot not zeroed: %v", k, slot)
				}
			}
			continue
		}
		if !found[i] {
			t.Fatalf("present key %d reported missing", k)
		}
		if slot[0] != byte(k) {
			t.Fatalf("key %d got value %d (misrouted scatter)", k, slot[0])
		}
	}
}

// TestCachedStoreBSPBypasses pins the consistency rule at the kv layer:
// under BSP (bound 0) the tier must never serve a read.
func TestCachedStoreBSPBypasses(t *testing.T) {
	_, cached := openCachedPair(t, 0, 256, true)
	s, err := cached.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := make([]byte, 16)
	for k := uint64(1); k <= 8; k++ {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(k, v); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(k, v); err != nil { // balance the clocked read
			t.Fatal(err)
		}
	}
	if hits := cached.Stats().CacheHits; hits != 0 {
		t.Fatalf("BSP served %d reads from the tier", hits)
	}
}

// TestCachedStoreFillAfterRMW races hotcache's drop rule through the
// store's tier (run under -race): a reader loops GetBatch — tier sweep, one
// engine batch for the misses, a fill per miss with the sweep's stamp —
// while a writer loops RMW, each one invalidating an entry the reader is
// about to fill. A fill that lands after the invalidation it raced holds
// the pre-RMW value, and with no bound to age it out it is served until the
// key's next write: without the rule the quiesced check below fails within
// a run or two. Once the writer stops every Get must equal Peek and the
// last counter written.
func TestCachedStoreFillAfterRMW(t *testing.T) {
	const (
		keys   = 64
		rounds = 500
	)
	for _, bound := range []int64{-1, faster.BoundAsync} {
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			_, cached := openCachedPair(t, bound, 256, true)
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // writer: counter += 1, storage-side
				defer wg.Done()
				defer done.Store(true)
				s, err := cached.NewSession()
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Close()
				for i := 0; i < rounds; i++ {
					for k := uint64(0); k < keys; k++ {
						err := s.RMW(k, func(cur []byte, _ bool) bool {
							binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+1)
							return true
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			go func() { // reader: never sees a counter run backwards
				defer wg.Done()
				s, err := cached.NewSession()
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Close()
				ks := make([]uint64, keys)
				for i := range ks {
					ks[i] = uint64(i)
				}
				v := make([]byte, 16*keys)
				fd := make([]bool, keys)
				var last [keys]uint64
				for !done.Load() {
					if err := SessionGetBatch(s, 16, ks, v, fd); err != nil {
						t.Error(err)
						return
					}
					for k := uint64(0); k < keys; k++ {
						if n := binary.LittleEndian.Uint64(v[k*16:]); fd[k] && n < last[k] {
							t.Errorf("key %d read %d after %d", k, n, last[k])
							return
						} else if fd[k] {
							last[k] = n
						}
					}
				}
			}()
			wg.Wait()
			if t.Failed() {
				return
			}
			s, err := cached.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			g, p := make([]byte, 16), make([]byte, 16)
			for k := uint64(0); k < keys; k++ {
				if _, err := s.Get(k, g); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Peek(k, p); err != nil {
					t.Fatal(err)
				}
				gn, pn := binary.LittleEndian.Uint64(g), binary.LittleEndian.Uint64(p)
				if gn != rounds || pn != rounds {
					t.Fatalf("quiesced key %d: Get %d, Peek %d, want %d", k, gn, pn, rounds)
				}
			}
		})
	}
}
