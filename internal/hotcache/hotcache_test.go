package hotcache

import (
	"slices"
	"testing"
)

func TestAdmissible(t *testing.T) {
	cases := []struct {
		bound, gap int64
		want       bool
	}{
		{-1, 1 << 40, true},         // clock disabled: no contract
		{0, 0, false},               // BSP: never
		{BoundAsync, 1 << 40, true}, // ASP: always
		{4, 4, true},                // SSP at the bound
		{4, 5, false},               // SSP beyond the bound
		{1, 0, true},
	}
	for _, c := range cases {
		if got := Admissible(c.bound, c.gap); got != c.want {
			t.Errorf("Admissible(bound=%d, gap=%d) = %v, want %v", c.bound, c.gap, got, c.want)
		}
	}
}

// TestByteCacheRoundTrip pins the byte instantiation the kv wrapper and
// server tier use.
func TestByteCacheRoundTrip(t *testing.T) {
	c := New[byte](64, 4)
	c.Fill(9, []byte{1, 2, 3, 4}, 5)
	dst := make([]byte, 4)
	if !c.Get(9, dst, 5, BoundAsync) {
		t.Fatal("miss on resident key")
	}
	if dst[2] != 3 {
		t.Fatalf("wrong bytes: %v", dst)
	}
	if c.Get(9, dst, 100, 4) { // gap 95 > bound 4
		t.Fatal("beyond-bound byte entry served")
	}
	c.Drop(9)
	if c.Len() != 0 {
		t.Fatalf("len after drop: %d", c.Len())
	}
}

// TestEntryRecycling pins the zero-allocation eviction path: a full shard
// reuses the evicted entry's storage for the incoming key.
func TestEntryRecycling(t *testing.T) {
	c := New[float32](16, 1) // one slot per shard
	for k := uint64(0); k < 1024; k++ {
		c.Fill(k, []float32{float32(k)}, 0)
	}
	if c.Len() > 16 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := New[float32](64, 2)
	dst := make([]float32, 2)
	if c.Get(1, dst, 0, BoundAsync) {
		t.Fatal("empty cache hit")
	}
	c.Fill(1, []float32{1, 2}, 0)
	if !c.Get(1, dst, 0, BoundAsync) {
		t.Fatal("resident key missed")
	}
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("wrong value: %v", dst)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counters: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
}

// sameShardKeys finds n keys that land on one shard, by watching which keys
// evict a probe from a one-slot-per-shard tier.
func sameShardKeys(t *testing.T, n int) []uint64 {
	t.Helper()
	var keys []uint64
	for k := uint64(0); k < 256 && len(keys) < n; k++ {
		c := New[float32](nShards, 1)
		c.Fill(100, []float32{100}, 0)
		c.Fill(k, []float32{float32(k)}, 0)
		if k != 100 && c.Len() == 1 { // k evicted 100: same shard
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("could not find %d keys sharing a shard, got %d", n, len(keys))
	}
	return keys
}

// TestCacheEvictionOrder pins the LRU policy: with every key landing in
// one shard, a Get refreshes recency, so the untouched key is the one
// evicted when the shard overflows.
func TestCacheEvictionOrder(t *testing.T) {
	ks := sameShardKeys(t, 3)
	a, b, x := ks[0], ks[1], ks[2]
	c := New[float32](2*nShards, 1) // 2 slots per shard
	dst := make([]float32, 1)
	c.Fill(a, []float32{1}, 0)
	c.Fill(b, []float32{2}, 0)
	if !c.Get(a, dst, 0, BoundAsync) { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Fill(x, []float32{3}, 0) // shard full: evicts b
	if c.Get(b, dst, 0, BoundAsync) {
		t.Fatal("LRU key b survived eviction")
	}
	if !c.Get(a, dst, 0, BoundAsync) || !c.Get(x, dst, 0, BoundAsync) {
		t.Fatal("recently used keys evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New[float32](nShards, 2) // 1 slot per shard
	for k := uint64(0); k < 64; k++ {
		c.Fill(k, []float32{float32(k), 0}, 0)
	}
	if c.Len() > nShards {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
	// Most recent key per shard must be resident.
	if !c.Get(63, make([]float32, 2), 0, BoundAsync) {
		t.Fatal("most recent key evicted")
	}
}

func TestCacheDrop(t *testing.T) {
	c := New[float32](32, 2)
	c.Write(1, []float32{1, 2})
	c.Drop(1)
	if c.Get(1, make([]float32, 2), c.Now(), BoundAsync) {
		t.Fatal("dropped key still cached")
	}
}

func TestCacheDimMismatch(t *testing.T) {
	c := New[float32](64, 4)
	c.Fill(1, []float32{1, 2, 3, 4}, 0)
	// Wrong-length destination never hits.
	if c.Get(1, make([]float32, 3), 0, BoundAsync) {
		t.Fatal("short dst served")
	}
	if c.Get(1, make([]float32, 5), 0, BoundAsync) {
		t.Fatal("long dst served")
	}
	// Wrong-length value is dropped, not truncated.
	c.Fill(2, []float32{1, 2}, 0)
	if c.Get(2, make([]float32, 4), 0, BoundAsync) {
		t.Fatal("short value admitted")
	}
}

// TestCacheStalenessBound is the contract the hot tier exists for: a
// cached value must NOT be served once the clock gap exceeds the bound.
func TestCacheStalenessBound(t *testing.T) {
	c := New[float32](64, 1)
	dst := make([]float32, 1)
	c.Fill(1, []float32{42}, 10) // filled at clock 10

	// ASP: any gap is admissible.
	if !c.Get(1, dst, 1<<40, BoundAsync) {
		t.Fatal("ASP refused a cached value")
	}
	// BSP: nothing is admissible, even at gap zero.
	if c.Get(1, dst, 10, 0) {
		t.Fatal("BSP served a cached value")
	}
	// SSP(4): gap 4 admissible, gap 5 not.
	if !c.Get(1, dst, 14, 4) {
		t.Fatal("SSP refused a within-bound value (gap 4, bound 4)")
	}
	if c.Get(1, dst, 15, 4) {
		t.Fatal("SSP served a beyond-bound value (gap 5, bound 4)")
	}
	// Disabled clock (-1): cache serves freely.
	if !c.Get(1, dst, 1<<40, -1) {
		t.Fatal("disabled bound refused a cached value")
	}
}

// TestCacheStaleFillDoesNotRegress pins the monotonic-stamp rule: a
// read-side fill carrying an older stamp than the resident write-through
// entry must be dropped, or a racing reader could roll the tier back to a
// stale value.
func TestCacheStaleFillDoesNotRegress(t *testing.T) {
	c := New[float32](64, 1)
	stamp := c.Now()               // a reader takes the clock, reads 1 from the store,
	c.Write(7, []float32{2})       // a writer's write-through lands first,
	c.Fill(7, []float32{1}, stamp) // and the reader's fill arrives late: dropped
	dst := make([]float32, 1)
	if !c.Get(7, dst, c.Now(), BoundAsync) {
		t.Fatal("entry missing")
	}
	if dst[0] != 2 {
		t.Fatalf("stale fill regressed the entry: got %v, want 2", dst[0])
	}
}

// TestFillAfterDropRefused is the fill-after-drop hole, closed: a reader
// takes its stamp and reads v1 from the store, an RMW (or Delete) lands and
// drops the key, and only then does the reader's fill arrive. Accepting it
// serves the pre-update value until the key's next write — forever under
// ASP or a disabled bound. The fill must be refused; a fill stamped at or
// after the drop is a read that saw the update, and lands.
func TestFillAfterDropRefused(t *testing.T) {
	for _, bound := range []int64{-1, BoundAsync, 4} {
		c := New[float32](64, 1)
		dst := make([]float32, 1)
		c.Write(1, []float32{1}) // v1 is in the store and the tier
		stamp := c.Now()         // reader: stamp, then store read → v1
		c.Drop(1)                // writer: storage-side v1 → v2, tier entry dropped
		c.Fill(1, []float32{1}, stamp)
		if c.Get(1, dst, c.Now(), bound) {
			t.Fatalf("bound %d: a fill stamped before the drop was served (%v)", bound, dst[0])
		}
		// The shard remembers the drop, not a tombstone.
		if c.Len() != 0 {
			t.Fatalf("bound %d: %d entries after a refused fill", bound, c.Len())
		}
		stamp = c.Now() // a read that began after the drop sees v2
		c.Fill(1, []float32{2}, stamp)
		if !c.Get(1, dst, c.Now(), bound) || dst[0] != 2 {
			t.Fatalf("bound %d: a fill stamped after the drop was refused (got %v)", bound, dst[0])
		}
	}
}

// TestWriteClock pins who ticks: one per Write and Drop, len(keys) per
// WriteBatch, none for the read side (Now, Get, Sweep, Fill).
func TestWriteClock(t *testing.T) {
	c := New[byte](64, 1)
	c.Write(1, []byte{1})
	c.Drop(1)
	c.WriteBatch([]uint64{2, 3, 4}, []byte{2, 3, 4})
	c.Fill(5, []byte{5}, c.Now())
	c.Get(5, make([]byte, 1), c.Now(), BoundAsync)
	c.Sweep([]uint64{2, 9}, make([]byte, 2), BoundAsync, nil, nil)
	if c.Now() != 5 {
		t.Fatalf("clock %d after Write, Drop and a 3-key WriteBatch, want 5", c.Now())
	}
	// The batch shares one stamp — the clock after its advance.
	dst := make([]byte, 1)
	if !c.Get(2, dst, 5+4, 4) || c.Get(2, dst, 5+5, 4) {
		t.Fatal("a WriteBatch entry is not stamped with the batch's clock advance")
	}
}

// TestSweep pins the batch consult: hits are copied into their own slots,
// misses come back compacted in the caller's order with their positions,
// the scratch slices are reused, and the whole batch is judged under one
// stamp — the clock when the sweep began.
func TestSweep(t *testing.T) {
	c := New[float32](64, 2)
	c.WriteBatch([]uint64{3, 7, 12}, []float32{3, 30, 7, 70, 12, 120}) // clock 3
	c.Write(1, []float32{1, 10})                                       // clock 4

	keys := []uint64{3, 100, 7, 101, 12, 1}
	dst := make([]float32, len(keys)*2)
	idx, miss := make([]int, 0, 8), make([]uint64, 0, 8)
	idx, miss = append(idx, 99), append(miss, 99) // stale scratch must be reset
	before := c.Stats()
	stamp, gotIdx, gotMiss := c.Sweep(keys, dst, BoundAsync, idx, miss)
	if stamp != 4 {
		t.Fatalf("stamp %d, want the clock at the sweep (4)", stamp)
	}
	if !slices.Equal(gotIdx, []int{1, 3}) || !slices.Equal(gotMiss, []uint64{100, 101}) {
		t.Fatalf("misses %v at %v, want [100 101] at [1 3]", gotMiss, gotIdx)
	}
	if &gotIdx[0] != &idx[:1][0] || &gotMiss[0] != &miss[:1][0] {
		t.Fatal("sweep did not reuse the caller's scratch")
	}
	want := []float32{3, 30, 0, 0, 7, 70, 0, 0, 12, 120, 1, 10}
	if !slices.Equal(dst, want) {
		t.Fatalf("dst %v, want %v", dst, want)
	}
	st := c.Stats()
	if st.Hits-before.Hits != 4 || st.Misses-before.Misses != 2 {
		t.Fatalf("sweep counted %d hits, %d misses, want 4 and 2", st.Hits-before.Hits, st.Misses-before.Misses)
	}

	// SSP(2): the batch's entries (stamp 3) trail the clock by 1, key 1
	// (stamp 4) by 0. Two more writes put the batch beyond the bound.
	c.Write(50, []float32{0, 0})
	c.Write(51, []float32{0, 0}) // clock 6: gaps 3 and 2
	_, gotIdx, gotMiss = c.Sweep(keys[:1], dst, 2, gotIdx, gotMiss)
	if len(gotMiss) != 1 {
		t.Fatal("an entry 3 writes behind was served under SSP(2)")
	}
	_, _, gotMiss = c.Sweep([]uint64{1}, dst, 2, gotIdx, gotMiss)
	if len(gotMiss) != 0 {
		t.Fatal("an entry 2 writes behind was refused under SSP(2)")
	}
	// BSP: nothing is admissible.
	if _, _, gotMiss = c.Sweep(keys, dst, 0, gotIdx, gotMiss); len(gotMiss) != len(keys) {
		t.Fatalf("BSP sweep served %d keys", len(keys)-len(gotMiss))
	}
}
