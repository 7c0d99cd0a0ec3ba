package bench

import (
	"context"
	"fmt"
	"net"
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

// LatencySweep is the tail-latency map of the read path: the same
// Zipf(0.99) workload as the cache sweep, swept across offered load
// (worker count × batch size) on both tiers — the in-process core.Table
// and a loopback mlkv-server — with the staleness-aware hot tier off and
// on. Throughput sweeps answer "how fast"; this one answers "how late":
// the p99/p999 columns show where queueing starts (rising workers), what
// a framed round trip costs at the tail (local vs remote at batch=1),
// and how much of the tail the hot tier absorbs (cache on vs off).
func (e *Env) LatencySweep() error {
	s := e.Scale
	records := s.YCSBRecords
	dim := s.Dim
	entries := int(records / 4)
	bufKB := s.BufferKBs[0]
	dur := s.Duration / 4
	if dur < 150*time.Millisecond {
		dur = 150 * time.Millisecond
	}
	workerPoints := s.Threads

	e.printf("== Latency: tail of the Zipf read path vs offered load (ASP) ==\n")
	e.printf("records=%d dim=%d buffer=%dKB tier=%d entries dur=%s/cell\n",
		records, dim, bufKB, entries, dur)

	measure := func(tier string, cacheEntries int, newSess func() (sweepSession, error), seed0 uint64, extra map[string]any) error {
		e.printf("-- %s cache=%d --\n", tier, cacheEntries)
		e.printf("%-8s %-8s %14s %10s %10s %10s\n",
			"workers", "batch", "keys/s", "p50-µs", "p99-µs", "p999-µs")
		for _, batch := range []int{1, 256} {
			for _, workers := range workerPoints {
				rate, lat, err := measureZipf(newSess, records, dim, batch, workers, dur, seed0+uint64(batch*1000+workers))
				if err != nil {
					return err
				}
				e.printf("%-8d %-8d %14.0f %10.1f %10.1f %10.1f\n",
					workers, batch, rate,
					latency.Us(lat.P50), latency.Us(lat.P99), latency.Us(lat.P999))
				cfg := map[string]any{
					"records": records, "dim": dim, "buffer_kb": bufKB,
					"workers": workers, "batch": batch, "bound": "asp",
					"cache_entries": cacheEntries, "zipf": 0.99,
					"remote": tier == "remote", "ops": lat.Count,
				}
				for k, v := range extra {
					cfg[k] = v
				}
				r := Result{
					Name:      fmt.Sprintf("latency/%s/cache=%d/batch=%d/workers=%d", tier, cacheEntries, batch, workers),
					OpsPerSec: rate,
					Config:    cfg,
				}
				r.SetLatency(lat)
				e.Record(r)
			}
		}
		return nil
	}

	// Local tier: the core table, cache off then on.
	for _, cacheEntries := range []int{0, entries} {
		tbl, err := core.OpenTable(core.Options{
			Dir: e.dir("latency"), Dim: dim, StalenessBound: faster.BoundAsync,
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
		err = measure("local", cacheEntries, tableSess, 401, nil)
		tbl.Close()
		if err != nil {
			return err
		}
	}

	if err := e.flushPaceLeg(measure); err != nil {
		return err
	}

	// Remote tier: loopback mlkv-server, client-side tier off then on.
	// batch=1 here pays one framed round trip per key — the wire's tail
	// floor — which is exactly what the cache-on rows then erase.
	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: e.dir("latency-remote"), MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
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
	maxWorkers := workerPoints[len(workerPoints)-1]
	db, err := mlkv.Connect(mlkv.Scheme+ln.Addr().String(), mlkv.WithConns(maxWorkers))
	if err != nil {
		return err
	}
	defer db.Close()
	for _, cacheEntries := range []int{0, entries} {
		opts := []mlkv.Option{mlkv.WithStalenessBound(mlkv.ASP)}
		if cacheEntries > 0 {
			opts = append(opts, mlkv.WithCache(cacheEntries))
		}
		m, err := db.Open(fmt.Sprintf("latency-c%d", cacheEntries), dim, opts...)
		if err != nil {
			return err
		}
		modelSess := func() (sweepSession, error) { return m.NewSession() }
		if err := loadKeys(modelSess, records, dim); err != nil {
			m.Close()
			return err
		}
		err = measure("remote", cacheEntries, modelSess, 701, nil)
		m.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// flushPaceLeg maps the read tail under concurrent flush pressure: the
// same Zipf read workload, but with a background writer continuously
// pushing fresh pages at a table whose buffer is too small to hold them,
// so the log flusher runs throughout the measurement. Measured twice —
// flusher unpaced, then paced — the p99 delta is what FlushPace buys:
// flush writes smeared over time instead of bursting under the reads.
func (e *Env) flushPaceLeg(measure func(tier string, cacheEntries int, newSess func() (sweepSession, error), seed0 uint64, extra map[string]any) error) error {
	s := e.Scale
	records := s.YCSBRecords
	dim := s.Dim
	// A deliberately tight buffer: an eighth of the normal sweep point,
	// so the writer's appends spill pages continuously.
	bufKB := s.BufferKBs[0] / 8
	if bufKB < 64 {
		bufKB = 64
	}
	const pace = 500 * time.Microsecond
	for _, flushPace := range []time.Duration{0, pace} {
		tbl, err := core.OpenTable(core.Options{
			Dir: e.dir("latency-flush"), Dim: dim, StalenessBound: faster.BoundAsync,
			MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
			ExpectedKeys: records, FlushPace: flushPace,
		})
		if err != nil {
			return err
		}
		tableSess := func() (sweepSession, error) { return train.NewTableBackend(tbl, false).NewHandle() }
		if err := loadKeys(tableSess, records, dim); err != nil {
			tbl.Close()
			return err
		}
		stop := make(chan struct{})
		writerDone := make(chan error, 1)
		go func() {
			writerDone <- flushWriter(tableSess, records, dim, stop)
		}()
		tag := fmt.Sprintf("local-flush/pace=%dus", flushPace.Microseconds())
		err = measure(tag, 0, tableSess, 877, map[string]any{
			"flush_pace_us": flushPace.Microseconds(), "concurrent_writer": true,
		})
		close(stop)
		werr := <-writerDone
		ts := tbl.Stats()
		e.printf("flush: pages=%d group-commits=%d pace-stalls=%d\n",
			ts.FlushedPages, ts.GroupCommits, ts.FlushPaceStalls)
		tbl.Close()
		if err != nil {
			return err
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// flushWriter streams PutBatch traffic across the key space until stop
// closes, keeping the log tail moving and the flusher busy.
func flushWriter(newSess func() (sweepSession, error), records uint64, dim int, stop <-chan struct{}) error {
	sess, err := newSess()
	if err != nil {
		return err
	}
	defer sess.Close()
	const chunk = 256
	keys := make([]uint64, chunk)
	vals := make([]float32, chunk*dim)
	r := util.NewRNG(911)
	for i := range vals {
		vals[i] = r.Float32()
	}
	next := uint64(0)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		for i := range keys {
			keys[i] = next % records
			next++
		}
		if err := sess.PutBatch(keys, vals); err != nil {
			return err
		}
	}
}
