package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/train"
	"github.com/llm-db/mlkv-go/internal/util"
)

// CacheSweep measures what the staleness-aware hot tier buys on the hot
// read path: the same table serves a Zipf(0.99) read workload first with
// no cache and then with a tier holding a quarter of the key space, under
// ASP (where every resident entry is admissible). The store's buffer is
// deliberately the smallest sweep point, so the uncached path pays the
// hybrid log's full cost while the tier absorbs the skewed head of the
// distribution.
func (e *Env) CacheSweep() error {
	s := e.Scale
	records := s.YCSBRecords
	dim := s.Dim
	workers := s.Workers
	if workers < 2 {
		workers = 2
	}
	entries := int(records / 4)
	dur := s.Duration / 2
	if dur < 200*time.Millisecond {
		dur = 200 * time.Millisecond
	}
	bufKB := s.BufferKBs[0]

	e.printf("== Cache: staleness-aware hot tier on the Zipf read path (ASP) ==\n")
	e.printf("records=%d dim=%d buffer=%dKB workers=%d tier=%d entries\n",
		records, dim, bufKB, workers, entries)
	e.printf("%-10s %14s %14s %8s %8s\n", "batch", "cache-off", "cache-on", "ratio", "hit%")

	for _, batch := range []int{1, 32, 256} {
		var rates [2]float64
		var hitPct float64
		for pass, cacheEntries := range []int{0, entries} {
			tbl, err := core.OpenTable(core.Options{
				Dir: e.dir("cache"), Dim: dim, StalenessBound: faster.BoundAsync,
				MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
				ExpectedKeys: records, CacheEntries: cacheEntries,
			})
			if err != nil {
				return err
			}
			tableSess := func() (sweepSession, error) { return train.NewTableBackend(tbl, false).NewHandle() }
			if err := loadKeys(tableSess, records, dim); err != nil {
				tbl.Close()
				return err
			}
			rate, lat, err := measureZipf(tableSess, records, dim, batch, workers, dur, 131)
			if err != nil {
				tbl.Close()
				return err
			}
			rates[pass] = rate
			ts := tbl.Stats()
			if lookups := ts.CacheHits + ts.CacheMisses; lookups > 0 {
				hitPct = 100 * float64(ts.CacheHits) / float64(lookups)
			}
			tbl.Close()
			r := Result{
				Name:      fmt.Sprintf("zipf-read/batch=%d/cache=%d", batch, cacheEntries),
				OpsPerSec: rate,
				Config: map[string]any{
					"records": records, "dim": dim, "buffer_kb": bufKB,
					"workers": workers, "bound": "asp", "cache_entries": cacheEntries,
					"batch": batch, "zipf": 0.99,
					"cache_hits": ts.CacheHits, "cache_misses": ts.CacheMisses,
					"cache_evictions": ts.CacheEvictions,
				},
			}
			r.SetLatency(lat)
			e.Record(r)
		}
		e.printf("%-10d %14.0f %14.0f %7.2fx %7.1f%%\n",
			batch, rates[0], rates[1], rates[1]/rates[0], hitPct)
	}
	return e.cacheSweepRemote()
}

// cacheSweepRemote is the remote leg of the sweep: the same Zipf read
// workload over a loopback mlkv-server, with the client-side hot tier
// off and on. A tier hit saves the entire framed round trip, which is
// where the hot tier pays for itself hardest.
func (e *Env) cacheSweepRemote() error {
	s := e.Scale
	records := s.YCSBRecords
	dim := s.Dim
	workers := s.Workers
	if workers < 2 {
		workers = 2
	}
	entries := int(records / 4)
	dur := s.Duration / 2
	if dur < 200*time.Millisecond {
		dur = 200 * time.Millisecond
	}
	bufKB := s.BufferKBs[0]

	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: e.dir("cache-remote"), MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
		ExpectedKeys: records, StalenessBound: faster.BoundAsync,
	}})
	defer reg.Close()
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()
	db, err := mlkv.Connect(mlkv.Scheme+ln.Addr().String(), mlkv.WithConns(workers))
	if err != nil {
		return err
	}
	defer db.Close()

	e.printf("-- remote (loopback mlkv-server, client-side tier) --\n")
	e.printf("%-10s %14s %14s %8s %8s\n", "batch", "cache-off", "cache-on", "ratio", "hit%")
	for _, batch := range []int{32, 256} {
		var rates [2]float64
		var hitPct float64
		for pass, cacheEntries := range []int{0, entries} {
			opts := []mlkv.Option{mlkv.WithStalenessBound(mlkv.ASP)}
			if cacheEntries > 0 {
				opts = append(opts, mlkv.WithCache(cacheEntries))
			}
			m, err := db.Open(fmt.Sprintf("cache-b%d-c%d", batch, cacheEntries), dim, opts...)
			if err != nil {
				return err
			}
			modelSess := func() (sweepSession, error) { return m.NewSession() }
			if err := loadKeys(modelSess, records, dim); err != nil {
				m.Close()
				return err
			}
			rate, lat, err := measureZipf(modelSess, records, dim, batch, workers, dur, 211)
			if err != nil {
				m.Close()
				return err
			}
			rates[pass] = rate
			st := m.Stats()
			if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
				hitPct = 100 * float64(st.CacheHits) / float64(lookups)
			}
			m.Close()
			r := Result{
				Name:      fmt.Sprintf("zipf-read-remote/batch=%d/cache=%d", batch, cacheEntries),
				OpsPerSec: rate,
				Config: map[string]any{
					"records": records, "dim": dim, "buffer_kb": bufKB,
					"workers": workers, "bound": "asp", "cache_entries": cacheEntries,
					"batch": batch, "zipf": 0.99, "remote": true,
					"cache_hits": st.CacheHits, "cache_misses": st.CacheMisses,
				},
			}
			r.SetLatency(lat)
			e.Record(r)
		}
		e.printf("%-10d %14.0f %14.0f %7.2fx %7.1f%%\n",
			batch, rates[0], rates[1], rates[1]/rates[0], hitPct)
	}
	return nil
}

// sweepSession is the read/write surface the cache sweep drives; both
// train.Handle (local leg, over the core table) and mlkv.Session (remote
// leg) satisfy it, so one loader and one measurer serve both.
type sweepSession interface {
	Get(key uint64, dst []float32) error
	GetBatch(keys []uint64, dst []float32) error
	PutBatch(keys []uint64, vals []float32) error
	Close()
}

// loadKeys writes every key once so the sweep reads a fully materialized
// model.
func loadKeys(newSess func() (sweepSession, error), records uint64, dim int) error {
	sess, err := newSess()
	if err != nil {
		return err
	}
	defer sess.Close()
	const chunk = 1024
	keys := make([]uint64, 0, chunk)
	vals := make([]float32, 0, chunk*dim)
	r := util.NewRNG(3)
	for k := uint64(0); k < records; k++ {
		keys = append(keys, k)
		for d := 0; d < dim; d++ {
			vals = append(vals, r.Float32())
		}
		if len(keys) == chunk || k == records-1 {
			if err := sess.PutBatch(keys, vals); err != nil {
				return err
			}
			keys, vals = keys[:0], vals[:0]
		}
	}
	return nil
}

// measureZipf runs workers sessions issuing Zipf(0.99) reads of the given
// batch size for roughly dur, returning keys read per second and the
// per-operation (one Get or one whole GetBatch) latency distribution
// recorded across every worker. batch 1 uses the scalar Get path. seed0
// varies the key streams between legs.
func measureZipf(newSess func() (sweepSession, error), records uint64, dim, batch, workers int, dur time.Duration, seed0 uint64) (float64, latency.Snapshot, error) {
	var lat latency.Histogram
	var keysRead atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := newSess()
			if err != nil {
				fail(err)
				return
			}
			defer sess.Close()
			zipf := util.NewScrambledZipf(util.NewRNG(seed0+uint64(w)), records, 0.99)
			keys := make([]uint64, batch)
			dst := make([]float32, batch*dim)
			// Every worker completes at least one op even if session
			// setup ate the whole window (heavy contention on a small
			// host), so every committed row carries a real distribution
			// instead of zeroed percentiles.
			for first := true; first || time.Since(start) < dur; first = false {
				opStart := time.Now()
				if batch == 1 {
					if err := sess.Get(zipf.Next(), dst); err != nil {
						fail(err)
						return
					}
				} else {
					for i := range keys {
						keys[i] = zipf.Next()
					}
					if err := sess.GetBatch(keys, dst); err != nil {
						fail(err)
						return
					}
				}
				lat.Since(opStart)
				keysRead.Add(int64(batch))
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, latency.Snapshot{}, fmt.Errorf("bench: cache measure: %w", firstErr)
	}
	return float64(keysRead.Load()) / time.Since(start).Seconds(), lat.Snapshot(), nil
}
