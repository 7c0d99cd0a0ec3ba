package core

import (
	"context"
	"testing"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

// spillTable writes filler embeddings (keys 2^32 and up) until tbl's store
// has evicted its first page — from then on reads go through the hot tier —
// and reads the fillers back oldest first until one comes from disk.
func spillTable(t *testing.T, tbl *Table) {
	t.Helper()
	ctx := context.Background()
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base = uint64(1) << 32
	v := make([]float32, tbl.Dim())
	n := uint64(0)
	for ; tbl.store.Resident(); n++ {
		if n == 1<<20 {
			t.Fatal("table still resident after 2^20 filler writes")
		}
		if err := putOne(ctx, s, base+n, v); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n && tbl.Stats().DiskReads == 0; k++ {
		if _, err := s.Peek(ctx, base+k, v); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Stats().DiskReads == 0 {
		t.Fatal("spilled table served every filler key from memory")
	}
}

// TestTableHotTier exercises the wired read path of a table that has
// spilled to disk: reads fill the tier, Puts write through, RMW and Delete
// invalidate, and under SSP the tier stops serving once enough writes land.
func TestTableHotTier(t *testing.T) {
	ctx := context.Background()
	tbl, err := OpenTable(Options{
		Dir: t.TempDir(), Dim: 2, StalenessBound: 4, // SSP(4)
		MemoryBytes: 1, RecordsPerPage: 64, CacheEntries: 256, // four pages
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	spillTable(t, tbl)
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	put := func(k uint64, v float32) {
		if err := putOne(ctx, s, k, []float32{v, v}); err != nil {
			t.Fatal(err)
		}
	}
	get := func(k uint64) float32 {
		dst := make([]float32, 2)
		if err := getOne(ctx, s, k, dst); err != nil {
			t.Fatal(err)
		}
		// Balance the clocked read so SSP never blocks this single session.
		if err := putOne(ctx, s, k, dst); err != nil {
			t.Fatal(err)
		}
		return dst[0]
	}

	put(1, 10)
	if got := get(1); got != 10 {
		t.Fatalf("got %v, want 10 (write-through)", got)
	}
	hitsAfterFirst := tbl.Stats().CacheHits
	if hitsAfterFirst == 0 {
		t.Fatal("write-through entry not served")
	}

	// A second session writes the key through the store; the tier entry
	// refreshes via write-through, so reads still see the newest value.
	s2, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := putOne(ctx, s2, 1, []float32{20, 20}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if got := get(1); got != 20 {
		t.Fatalf("got %v, want 20 after foreign Put", got)
	}

	// RMW invalidates: the next read must come from the store.
	missesBefore := tbl.Stats().CacheMisses
	if err := s.RMW(ctx, 1, []float32{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	if got := get(1); got != 19 {
		t.Fatalf("got %v, want 19 after RMW", got)
	}
	if tbl.Stats().CacheMisses == missesBefore {
		t.Fatal("RMW did not invalidate the tier entry")
	}

	// SSP gap: fill key 2's entry, then land > bound writes elsewhere; the
	// entry must stop being admissible (the store, not the tier, serves).
	put(2, 5)
	_ = get(2) // ensure resident with a recent stamp
	for i := 0; i < 10; i++ {
		put(3, float32(i))
	}
	hitsBefore := tbl.Stats().CacheHits
	if got := get(2); got != 5 {
		t.Fatalf("got %v, want 5", got)
	}
	// The read must have been a tier miss (gap 10+ > bound 4): hits may
	// only have grown by the write-through refresh that followed, so check
	// misses moved instead.
	_ = hitsBefore
	if tbl.Stats().CacheMisses == missesBefore {
		t.Fatal("beyond-bound entry was served from the tier")
	}

	// Delete invalidates.
	if err := s.Delete(ctx, 2); err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 2)
	if found, err := s.Peek(ctx, 2, dst); err != nil || found {
		t.Fatalf("peek after delete: found=%v err=%v", found, err)
	}
}

// TestTableHotTierResidentBypass is TestTableHotTier's mirror on a table
// that fits in memory: reads never look at the tier — the log's in-memory
// region is the cache — while writes keep it coherent, so that the first
// read after the table spills is served the newest value, from the tier.
func TestTableHotTierResidentBypass(t *testing.T) {
	ctx := context.Background()
	tbl, err := OpenTable(Options{
		Dir: t.TempDir(), Dim: 2, StalenessBound: faster.BoundAsync,
		MemoryBytes: 1, RecordsPerPage: 64,
		CacheEntries: 1 << 14, // room for the spill's filler beside the four keys
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := make([]float32, 2)
	batch := []uint64{1, 2, 3, 4}
	bdst := make([]float32, len(batch)*2)
	for round := float32(0); round < 3; round++ {
		for _, k := range batch {
			if err := putOne(ctx, s, k, []float32{round, float32(k)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range batch {
			if err := getOne(ctx, s, k, dst); err != nil {
				t.Fatal(err)
			}
			if dst[0] != round || dst[1] != float32(k) {
				t.Fatalf("round %v key %d read %v", round, k, dst)
			}
		}
		if err := s.GetBatch(ctx, batch, bdst); err != nil {
			t.Fatal(err)
		}
	}
	if !tbl.store.Resident() {
		t.Fatal("fixture spilled")
	}
	if st := tbl.Stats(); st.CacheHits+st.CacheMisses+st.CacheEvictions != 0 {
		t.Fatalf("resident table consulted the tier: %d hits, %d misses, %d evictions",
			st.CacheHits, st.CacheMisses, st.CacheEvictions)
	}
	// The writes landed in the bypassed tier all the same, and an RMW while
	// resident must still invalidate: after the spill key 1 comes from the
	// store with the step applied, keys 2..4 from the tier (the three hits
	// counted below are entries written through while resident).
	if err := s.RMW(ctx, 1, []float32{1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	spillTable(t, tbl)
	for _, k := range batch {
		if err := getOne(ctx, s, k, dst); err != nil {
			t.Fatal(err)
		}
		want := float32(2)
		if k == 1 {
			want = 1
		}
		if dst[0] != want || dst[1] != float32(k) {
			t.Fatalf("after the spill key %d read %v, want [%v %d]", k, dst, want, k)
		}
	}
	if st := tbl.Stats(); st.CacheHits != 3 || st.CacheMisses != 1 {
		t.Fatalf("after the spill: %d tier hits, %d misses, want 3 and 1", st.CacheHits, st.CacheMisses)
	}
}

// TestTableHotTierBSPNeverServes pins the BSP rule end to end: with bound
// 0 every read synchronizes through the store and the tier records no
// hits at all.
func TestTableHotTierBSPNeverServes(t *testing.T) {
	ctx := context.Background()
	tbl, err := OpenTable(Options{
		Dir: t.TempDir(), Dim: 2, StalenessBound: 0,
		MemoryBytes: 1 << 20, CacheEntries: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	emb := []float32{1, 1}
	dst := make([]float32, 2)
	for k := uint64(1); k <= 50; k++ {
		if err := putOne(ctx, s, k, emb); err != nil {
			t.Fatal(err)
		}
		if err := getOne(ctx, s, k, dst); err != nil {
			t.Fatal(err)
		}
		if err := putOne(ctx, s, k, dst); err != nil { // balance the token
			t.Fatal(err)
		}
	}
	ts := tbl.Stats()
	if ts.CacheHits != 0 {
		t.Fatalf("BSP served %d reads from the tier", ts.CacheHits)
	}
}

// BenchmarkTableGetBatchSpilledTier times the path no benchmark workload
// runs: a 256-key GetBatch on a spilled table whose tier is consulted. "hot"
// draws every batch from 256 tier-resident keys (all hits: the sweep plus a
// bytes→float32 decode per key); "mixed" draws uniformly from 16 Ki keys
// behind a 4 Ki-entry tier (mostly misses: sweep, one engine batch, fills).
func BenchmarkTableGetBatchSpilledTier(b *testing.B) {
	ctx := context.Background()
	const (
		dim   = 16
		nKeys = 1 << 14
		batch = 256
	)
	for _, span := range []struct {
		name string
		keys uint64
	}{{"hot", batch}, {"mixed", nKeys}} {
		b.Run(span.name, func(b *testing.B) {
			tbl, err := OpenTable(Options{
				Dir: b.TempDir(), Dim: dim, Shards: 4, StalenessBound: faster.BoundAsync,
				MemoryBytes: 1 << 18, RecordsPerPage: 64, CacheEntries: 1 << 12,
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
			v := make([]float32, dim)
			for k := uint64(nKeys); k > 0; k-- { // the hot span is written last
				if err := putOne(ctx, s, k-1, v); err != nil {
					b.Fatal(err)
				}
			}
			if tbl.store.Resident() {
				b.Fatal("fixture did not spill")
			}
			keys, dst := make([]uint64, batch), make([]float32, batch*dim)
			rng := util.NewRNG(1)
			draw := func() {
				for i := range keys {
					keys[i] = rng.Uint64() % span.keys
				}
			}
			draw()
			if err := s.GetBatch(ctx, keys, dst); err != nil { // fill the tier
				b.Fatal(err)
			}
			before := tbl.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				draw()
				if err := s.GetBatch(ctx, keys, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := tbl.Stats().Sub(before)
			b.ReportMetric(float64(d.CacheHits)/float64(d.CacheHits+d.CacheMisses), "hit-ratio")
		})
	}
}
