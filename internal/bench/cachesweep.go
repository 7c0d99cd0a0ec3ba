package bench

import (
	"fmt"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// CacheSweep measures what the staleness-aware hot tier buys on the hot
// read path: the same model serves a Zipf(0.99) read workload first with
// no cache and then with a tier holding a quarter of the key space, under
// ASP (where every resident entry is admissible). The store's buffer is
// deliberately the smallest sweep point, so the uncached path pays the
// hybrid log's full cost while the tier absorbs the skewed head of the
// distribution. The remote leg runs the same workload over a loopback
// mlkv-server with the client-side tier off and on: a tier hit saves the
// entire framed round trip, which is where the tier pays for itself
// hardest.
func (e *Env) CacheSweep() error {
	s := e.Scale
	records := s.YCSBRecords
	workers := max(s.Workers, 2)
	entries := int(records / 4)
	dur := max(s.Duration/2, 200*time.Millisecond)
	bufKB := s.BufferKBs[0]

	e.printf("== Cache: staleness-aware hot tier on the Zipf read path (ASP) ==\n")
	e.printf("records=%d dim=%d buffer=%dKB workers=%d tier=%d entries\n",
		records, s.Dim, bufKB, workers, entries)
	err := e.cacheLeg("zipf-read", false, []int{1, 32, 256}, entries, workers, dur, 131,
		func(_, cacheEntries int) (*mlkv.Model, func(), error) {
			return e.openLocal("cache", s.Dim, mlkv.WithStalenessBound(mlkv.ASP),
				mlkv.WithMemory(int64(bufKB)<<10), mlkv.WithExpectedKeys(records),
				mlkv.WithCache(cacheEntries))
		})
	if err != nil {
		return err
	}

	target, stop, err := serveLoopback(e.serverStore("cache-remote", bufKB, records, mlkv.ASP))
	if err != nil {
		return err
	}
	defer stop()
	db, err := mlkv.Connect(target, mlkv.WithConns(workers))
	if err != nil {
		return err
	}
	defer db.Close()
	e.printf("-- remote (loopback mlkv-server, client-side tier) --\n")
	return e.cacheLeg("zipf-read-remote", true, []int{32, 256}, entries, workers, dur, 211,
		func(batch, cacheEntries int) (*mlkv.Model, func(), error) {
			m, err := db.Open(fmt.Sprintf("cache-b%d-c%d", batch, cacheEntries), s.Dim,
				mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithCache(cacheEntries))
			if err != nil {
				return nil, nil, err
			}
			return m, func() { m.Close() }, nil
		})
}

// cacheLeg runs one leg of the cache sweep: for each batch size, a fresh
// model from open without a tier and then with one of entries, each loaded
// in full and read by the Zipf closed loop.
func (e *Env) cacheLeg(name string, remote bool, batches []int, entries, workers int, dur time.Duration, seed0 uint64,
	open func(batch, cacheEntries int) (*mlkv.Model, func(), error)) error {
	records := e.Scale.YCSBRecords
	e.printf("%-10s %14s %14s %8s %8s\n", "batch", "cache-off", "cache-on", "ratio", "hit%")
	for _, batch := range batches {
		var rates [2]float64
		var hitPct float64
		for pass, cacheEntries := range []int{0, entries} {
			m, closeModel, err := open(batch, cacheEntries)
			if err != nil {
				return err
			}
			if err := ycsb.Load(m, records, 3); err != nil {
				closeModel()
				return err
			}
			rate, lat, err := loop{
				workers: workers, batch: batch, dur: dur,
				keys: zipfKeys(records, seed0), read: getOrBatch,
			}.run(m)
			st := m.Stats()
			closeModel()
			if err != nil {
				return err
			}
			rates[pass] = rate
			if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
				hitPct = 100 * float64(st.CacheHits) / float64(lookups)
			}
			r := Result{
				Name:      fmt.Sprintf("%s/batch=%d/cache=%d", name, batch, cacheEntries),
				OpsPerSec: rate,
				Config: map[string]any{
					"records": records, "dim": e.Scale.Dim, "buffer_kb": e.Scale.BufferKBs[0],
					"workers": workers, "bound": "asp", "cache_entries": cacheEntries,
					"batch": batch, "zipf": 0.99, "remote": remote,
					"cache_hits": st.CacheHits, "cache_misses": st.CacheMisses,
					"cache_evictions": st.CacheEvictions,
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
