package mlkv_test

import (
	"context"
	"net"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
)

// driveModel runs one deterministic op sequence against a fresh session
// of m and returns every value the sequence observed, so two models can
// be compared observation by observation.
func driveModel(t *testing.T, m *mlkv.Model, dim int) []float32 {
	t.Helper()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seen []float32
	emb := make([]float32, dim)
	batch := make([]uint64, 8)
	bvals := make([]float32, len(batch)*dim)
	for round := 0; round < 4; round++ {
		// Writes: a moving window of keys, values derived from the round.
		for k := uint64(0); k < 16; k++ {
			for i := range emb {
				emb[i] = float32(round*100) + float32(k) + float32(i)*0.25
			}
			if err := s.Put(k, emb); err != nil {
				t.Fatal(err)
			}
		}
		// Hot reads: the same head keys over and over (the tier's home turf).
		for rep := 0; rep < 4; rep++ {
			for k := uint64(0); k < 16; k++ {
				if err := s.Get(k, emb); err != nil {
					t.Fatal(err)
				}
				seen = append(seen, emb...)
				if err := s.Put(k, emb); err != nil { // balance the clock
					t.Fatal(err)
				}
			}
		}
		// Batch reads.
		for i := range batch {
			batch[i] = uint64(i * 2)
		}
		if err := s.GetBatch(batch, bvals); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, bvals...)
		if err := s.PutBatch(batch, bvals); err != nil {
			t.Fatal(err)
		}
		// RMW and Delete keep the invalidation paths honest.
		grad := make([]float32, dim)
		grad[0] = 1
		if err := s.RMW(3, grad, 0.1); err != nil {
			t.Fatal(err)
		}
		if err := s.Get(3, emb); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, emb...)
		if err := s.Put(3, emb); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(5); err != nil {
			t.Fatal(err)
		}
		if found, err := s.Peek(5, emb); err != nil || found {
			t.Fatalf("round %d: key 5 survived delete (found=%v err=%v)", round, found, err)
		}
	}
	return seen
}

// spillModel writes filler embeddings (keys 2^32 and up) through m until
// the oldest of them reads back from disk: from the first evicted page on,
// a local model's reads go through its hot tier (WithCache) and its
// batches fan out a goroutine per shard. Open m with a WithMemory of a few
// pages, or this takes a while.
func spillModel(t *testing.T, m *mlkv.Model, dim int) {
	t.Helper()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base, chunk = uint64(1) << 32, 1024
	keys := make([]uint64, chunk)
	vals := make([]float32, chunk*dim)
	for n := uint64(0); m.Stats().DiskReads == 0; n += chunk {
		if n == 1<<20 {
			t.Fatal("no read reached disk after 2^20 filler writes")
		}
		for i := range keys {
			keys[i] = base + n + uint64(i)
		}
		if err := s.PutBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Peek(base, vals[:dim]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAPICacheEquivalence is the cache-on vs cache-off conformance check
// on both drivers: the same op sequence over a cached and an uncached
// model must observe identical values — the hot tier may only change
// speed, never results — and the cached model must actually have served
// reads from the tier. A local model's tier fronts the store only once it
// has spilled to disk, so the local pair is a few pages large and spilled
// first; a third, resident local model must read the same values without
// a single tier lookup.
func TestAPICacheEquivalence(t *testing.T) {
	const dim = 4
	for _, bound := range []int64{mlkv.ASP, 3 /* SSP */} {
		withTargets(t, func(t *testing.T, db *mlkv.DB) {
			opts := []mlkv.Option{mlkv.WithStalenessBound(bound), mlkv.WithMemory(1)}
			plain, err := db.Open("ce-plain", dim, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			cached, err := db.Open("ce-cached", dim, append(opts, mlkv.WithCache(1024))...)
			if err != nil {
				t.Fatal(err)
			}
			defer cached.Close()
			if !db.Remote() {
				spillModel(t, plain, dim)
				spillModel(t, cached, dim)
			}

			want := driveModel(t, plain, dim)
			got := driveModel(t, cached, dim)
			if !f32sEq(got, want) {
				t.Fatalf("bound %d: cached model diverged from uncached (%d observations)", bound, len(want))
			}
			st := cached.Stats()
			if st.CacheHits == 0 {
				t.Fatalf("bound %d: tier never served a read (misses=%d)", bound, st.CacheMisses)
			}
			if plain.Stats().CacheHits != 0 {
				t.Fatal("uncached model reported tier hits")
			}
			if db.Remote() {
				return // the client tier saves a round trip: always in front
			}

			resident, err := db.Open("ce-resident", dim, mlkv.WithStalenessBound(bound), mlkv.WithCache(1024))
			if err != nil {
				t.Fatal(err)
			}
			defer resident.Close()
			if got := driveModel(t, resident, dim); !f32sEq(got, want) {
				t.Fatalf("bound %d: resident cached model diverged from uncached", bound)
			}
			if st := resident.Stats(); st.DiskReads+st.CacheHits+st.CacheMisses+st.CacheEvictions != 0 {
				t.Fatalf("bound %d: model that fits in memory: %d disk reads, tier %d hits / %d misses / %d evictions, want none",
					bound, st.DiskReads, st.CacheHits, st.CacheMisses, st.CacheEvictions)
			}
		})
	}
}

// TestAPICacheBSPNeverServes pins the consistency floor on both drivers:
// under BSP a cache-enabled model must never serve a read from the tier
// (every read synchronizes through the store), and results stay exact.
func TestAPICacheBSPNeverServes(t *testing.T) {
	const dim = 4
	withTargets(t, func(t *testing.T, db *mlkv.DB) {
		m, err := db.Open("ce-bsp", dim, mlkv.WithStalenessBound(mlkv.BSP), mlkv.WithCache(1024))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		s, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		emb := make([]float32, dim)
		for k := uint64(1); k <= 32; k++ {
			for i := range emb {
				emb[i] = float32(k)
			}
			if err := s.Put(k, emb); err != nil {
				t.Fatal(err)
			}
			if err := s.Get(k, emb); err != nil {
				t.Fatal(err)
			}
			if emb[0] != float32(k) {
				t.Fatalf("key %d read %v", k, emb[0])
			}
			if err := s.Put(k, emb); err != nil { // balance the token
				t.Fatal(err)
			}
		}
		if hits := m.Stats().CacheHits; hits != 0 {
			t.Fatalf("BSP model served %d reads from the tier", hits)
		}
	})
}

// TestAPIServerSideCache exercises the server's shared per-model hot tier
// (-cache): a registry with CacheEntries set serves correct values and
// reports tier hits through the STATS op into the public Stats surface —
// for a model that has spilled to disk. One that fits in the server's
// memory is served by the log and never consults the tier.
func TestAPIServerSideCache(t *testing.T) {
	// Two registries, one template each: the same server cache over a
	// model that fits in memory and one at the four-page floor (256
	// records).
	serve := func(mem int64) *mlkv.DB {
		reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
			Dir: t.TempDir(), RecordsPerPage: 64, MemoryBytes: mem, ExpectedKeys: 1 << 12,
			StalenessBound: mlkv.ASP, CacheEntries: 1024,
		}})
		srv := server.New(server.Config{Registry: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		db, err := mlkv.Connect(mlkv.Scheme + ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			db.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-serveErr
			reg.Close()
		})
		return db
	}
	fitsDB, floorDB := serve(1<<20), serve(1)

	// The mirror first: eight reads of a model that fits in memory.
	fits, err := fitsDB.Open("srv-fits", 4, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer fits.Close()
	fs, err := fits.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.Put(9, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := fs.Get(9, make([]float32, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if st := fits.Stats(); st.Gets != 8 || st.CacheHits+st.CacheMisses+st.CacheEvictions != 0 {
		t.Fatalf("resident model: %d engine reads, tier %d hits / %d misses / %d evictions, want 8 and none",
			st.Gets, st.CacheHits, st.CacheMisses, st.CacheEvictions)
	}

	m, err := floorDB.Open("srv-cache", 4, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spillModel(t, m, 4)
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	emb := []float32{1, 2, 3, 4}
	if err := s.Put(9, emb); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 4)
	for i := 0; i < 8; i++ {
		if err := s.Get(9, got); err != nil {
			t.Fatal(err)
		}
		if !f32sEq(got, emb) {
			t.Fatalf("read %v, want %v", got, emb)
		}
	}
	st, err := m.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits == 0 {
		t.Fatalf("server tier never hit: %+v", st)
	}
	// Overwrite and re-read: write-through keeps the tier exact.
	emb2 := []float32{9, 8, 7, 6}
	if err := s.Put(9, emb2); err != nil {
		t.Fatal(err)
	}
	if err := s.Get(9, got); err != nil {
		t.Fatal(err)
	}
	if !f32sEq(got, emb2) {
		t.Fatalf("stale read after write-through: %v", got)
	}
}
