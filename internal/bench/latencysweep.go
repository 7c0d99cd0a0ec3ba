package bench

import (
	"fmt"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// LatencySweep is the tail-latency map of the read path: the same
// Zipf(0.99) workload as the cache sweep, swept across offered load
// (worker count × batch size) on both tiers — an in-process model and a
// loopback mlkv-server — with the staleness-aware hot tier off and on.
// Throughput sweeps answer "how fast"; this one answers "how late": the
// p99/p999 columns show where queueing starts (rising workers), what a
// framed round trip costs at the tail (local vs remote at batch=1), and
// how much of the tail the hot tier absorbs (cache on vs off).
func (e *Env) LatencySweep() error {
	s := e.Scale
	records := s.YCSBRecords
	entries := int(records / 4)
	bufKB := s.BufferKBs[0]
	dur := max(s.Duration/4, 150*time.Millisecond)

	e.printf("== Latency: tail of the Zipf read path vs offered load (ASP) ==\n")
	e.printf("records=%d dim=%d buffer=%dKB tier=%d entries dur=%s/cell\n",
		records, s.Dim, bufKB, entries, dur)

	// Local tier: a model through the public API, cache off then on.
	for _, cacheEntries := range []int{0, entries} {
		m, closeDB, err := e.openLocal("latency", s.Dim, mlkv.WithStalenessBound(mlkv.ASP),
			mlkv.WithMemory(int64(bufKB)<<10), mlkv.WithExpectedKeys(records),
			mlkv.WithCache(cacheEntries))
		if err != nil {
			return err
		}
		if err = ycsb.Load(m, records, 3); err == nil {
			err = e.latencyLeg("local", false, cacheEntries, m, dur, 401, nil)
		}
		closeDB()
		if err != nil {
			return err
		}
	}

	if err := e.flushPaceLeg(dur); err != nil {
		return err
	}

	// Remote tier: loopback mlkv-server, client-side tier off then on.
	// batch=1 here pays one framed round trip per key — the wire's tail
	// floor — which is exactly what the cache-on rows then erase.
	target, stop, err := serveLoopback(e.serverStore("latency-remote", bufKB, records, mlkv.ASP))
	if err != nil {
		return err
	}
	defer stop()
	db, err := mlkv.Connect(target, mlkv.WithConns(s.Threads[len(s.Threads)-1]))
	if err != nil {
		return err
	}
	defer db.Close()
	for _, cacheEntries := range []int{0, entries} {
		m, err := db.Open(fmt.Sprintf("latency-c%d", cacheEntries), s.Dim,
			mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithCache(cacheEntries))
		if err != nil {
			return err
		}
		if err = ycsb.Load(m, records, 3); err == nil {
			err = e.latencyLeg("remote", true, cacheEntries, m, dur, 701, nil)
		}
		m.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// latencyLeg sweeps the Zipf read closed loop on m, loaded in full, over
// batch sizes 1 and 256 × the scale's worker points, printing and
// recording one row per cell; extra lands in every row's config.
func (e *Env) latencyLeg(tier string, remote bool, cacheEntries int, m *mlkv.Model, dur time.Duration, seed0 uint64, extra map[string]any) error {
	records := e.Scale.YCSBRecords
	e.printf("-- %s cache=%d --\n", tier, cacheEntries)
	e.printf("%-8s %-8s %14s %10s %10s %10s\n",
		"workers", "batch", "keys/s", "p50-µs", "p99-µs", "p999-µs")
	for _, batch := range []int{1, 256} {
		for _, workers := range e.Scale.Threads {
			rate, lat, err := loop{
				workers: workers, batch: batch, dur: dur,
				keys: zipfKeys(records, seed0+uint64(batch*1000+workers)), read: getOrBatch,
			}.run(m)
			if err != nil {
				return err
			}
			e.printf("%-8d %-8d %14.0f %10.1f %10.1f %10.1f\n",
				workers, batch, rate,
				latency.Us(lat.P50), latency.Us(lat.P99), latency.Us(lat.P999))
			cfg := map[string]any{
				"records": records, "dim": e.Scale.Dim, "buffer_kb": e.Scale.BufferKBs[0],
				"workers": workers, "batch": batch, "bound": "asp",
				"cache_entries": cacheEntries, "zipf": 0.99,
				"remote": remote, "ops": lat.Count,
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

// flushPaceLeg maps the read tail under concurrent flush pressure: the
// same Zipf read workload against a loopback server whose buffer is too
// small for a background writer's fresh pages, so the log flusher runs
// throughout the measurement. Measured twice — flusher unpaced, then paced
// through kv.ShardedConfig.FlushPace, the field mlkv-server -flush-pace
// sets — the p99 delta is what pacing buys: flush writes smeared over time
// instead of bursting under the reads.
func (e *Env) flushPaceLeg(dur time.Duration) error {
	s := e.Scale
	records := s.YCSBRecords
	// A deliberately tight buffer: an eighth of the normal sweep point,
	// so the writer's appends spill pages continuously.
	bufKB := max(s.BufferKBs[0]/8, 64)
	const pace = 500 * time.Microsecond
	for _, flushPace := range []time.Duration{0, pace} {
		store := e.serverStore("latency-flush", bufKB, records, mlkv.ASP)
		store.FlushPace = flushPace
		if err := e.flushPaceRun(store, dur); err != nil {
			return err
		}
	}
	return nil
}

// flushPaceRun is one pace setting of flushPaceLeg.
func (e *Env) flushPaceRun(store kv.ShardedConfig, dur time.Duration) error {
	s := e.Scale
	target, stop, err := serveLoopback(store)
	if err != nil {
		return err
	}
	defer stop()
	db, err := mlkv.Connect(target, mlkv.WithConns(s.Threads[len(s.Threads)-1]+1))
	if err != nil {
		return err
	}
	defer db.Close()
	m, err := db.Open("latency-flush", s.Dim, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		return err
	}
	if err := ycsb.Load(m, s.YCSBRecords, 3); err != nil {
		return err
	}
	stopWriter := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() { writerDone <- flushWriter(m, s.YCSBRecords, stopWriter) }()
	paceUs := store.FlushPace.Microseconds()
	err = e.latencyLeg(fmt.Sprintf("remote-flush/pace=%dus", paceUs), true, 0, m, dur, 877,
		map[string]any{"flush_pace_us": paceUs, "concurrent_writer": true})
	close(stopWriter)
	werr := <-writerDone
	st := m.Stats()
	e.printf("flush: pages=%d group-commits=%d pace-stalls=%d\n",
		st.FlushedPages, st.GroupCommits, st.FlushPaceStalls)
	if err != nil {
		return err
	}
	return werr
}

// flushWriter streams PutBatch traffic across the key space until stop
// closes, keeping the log tail moving and the flusher busy.
func flushWriter(m *mlkv.Model, records uint64, stop <-chan struct{}) error {
	sess, err := m.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	const chunk = 256
	keys := make([]uint64, chunk)
	vals := make([]float32, chunk*m.Dim())
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
