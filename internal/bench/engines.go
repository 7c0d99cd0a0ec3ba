package bench

import (
	"fmt"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/train"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// benchEngines is the bake-off roster: every engine the seam can put
// behind a model, in the order the tables print.
var benchEngines = []string{kv.EngineFaster, kv.EngineBPTree}

// EngineSweep races the two storage engines behind the same seam on the
// same workloads: YCSB read-heavy and update-heavy over kv.OpenEngine
// (exactly what mlkv-server runs per model), a batched DLRM training leg
// over core.Table on each engine, then a batched Zipf read leg through the
// public API with WithEngine — the path a user's bake-off takes. Clock
// machinery is off everywhere (ASP / no bound), so the numbers isolate
// the engines' data structures, not staleness waits.
func (e *Env) EngineSweep() error {
	s := e.Scale
	records := s.YCSBRecords
	threads := s.Workers
	if threads < 2 {
		threads = 2
	}
	bufKB := s.BufferKBs[0]
	vs := s.Dim * 4

	e.printf("== Engines: faster vs bptree on identical workloads ==\n")
	e.printf("records=%d dim=%d buffer=%dKB threads=%d shards=4\n", records, s.Dim, bufKB, threads)

	for _, wl := range []struct {
		name     string
		readFrac float64
	}{
		{"read-heavy", 0.95},
		{"update-heavy", 0.5},
	} {
		e.printf("-- ycsb %s (%.0f%% reads, zipf) --\n", wl.name, wl.readFrac*100)
		e.printf("%-8s %14s %10s\n", "engine", "ops/s", "vs-faster")
		var base float64
		for _, eng := range benchEngines {
			bound := int64(faster.BoundAsync)
			if kv.ClockFree(eng) {
				bound = -1
			}
			store, err := kv.OpenEngine(eng, kv.ShardedConfig{
				Dir: e.dir("engines-" + eng), Shards: 4, ValueSize: vs,
				MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
				ExpectedKeys: records, StalenessBound: bound,
			}, eng)
			if err != nil {
				return err
			}
			res, err := ycsb.Run(ycsb.Options{
				Store: store, Records: records, Threads: threads,
				ReadFraction: wl.readFrac, Dist: ycsb.Zipfian,
				MaxOps: s.YCSBOps, Seed: 42,
			})
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if eng == kv.EngineFaster {
				base = res.Throughput
			}
			e.printf("%-8s %14.0f %9.2fx\n", eng, res.Throughput, res.Throughput/base)
			r := Result{
				Name:      fmt.Sprintf("ycsb/%s/engine=%s", wl.name, eng),
				OpsPerSec: res.Throughput,
				Config: map[string]any{
					"records": records, "value_size": vs, "buffer_kb": bufKB,
					"threads": threads, "shards": 4, "read_fraction": wl.readFrac,
					"dist": "zipfian", "ops": res.Ops,
				},
			}
			r.SetLatency(res.OpLat)
			e.Record(r)
		}
	}
	if err := e.engineSweepTrain(); err != nil {
		return err
	}
	return e.engineSweepAPI()
}

// engineSweepTrain is the training leg: batched async DLRM over each
// engine behind the same core.Table, so the table shows what the
// engine choice costs an actual gather/scatter training loop rather than
// a synthetic point workload.
func (e *Env) engineSweepTrain() error {
	s := e.Scale
	bufKB := s.BufferKBs[0]
	keys := s.CTRCard * uint64(s.CTRFields)

	e.printf("-- train: DLRM batched gather/scatter (async, batch=32) --\n")
	e.printf("%-8s %14s %10s\n", "engine", "samples/s", "vs-faster")
	var base float64
	for _, eng := range benchEngines {
		bound := int64(faster.BoundAsync)
		if kv.ClockFree(eng) {
			bound = -1
		}
		tbl, err := core.OpenTable(core.Options{
			Dir: e.dir("engines-train-" + eng), Dim: s.Dim, Engine: eng, Shards: 4,
			MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
			ExpectedKeys: keys, StalenessBound: bound, Init: e.ctrInit(),
		})
		if err != nil {
			return err
		}
		res, err := train.TrainCTR(e.ctrOpts(train.NewTableBackend(tbl, false), train.ModeAsync, 0))
		if cerr := tbl.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if eng == kv.EngineFaster {
			base = res.Throughput
		}
		e.printf("%-8s %14.0f %9.2fx\n", eng, res.Throughput, res.Throughput/base)
		// Percentiles here are per-minibatch embedding time (gather +
		// scatter), the storage-facing slice of each training step.
		r := Result{
			Name:      fmt.Sprintf("train-ctr/engine=%s", eng),
			OpsPerSec: res.Throughput,
			Config: map[string]any{
				"keys": keys, "dim": s.Dim, "buffer_kb": bufKB, "shards": 4,
				"workers": s.Workers, "batch": 32, "mode": "async",
				"samples": res.Samples,
			},
		}
		r.SetLatency(res.EmbLat)
		e.Record(r)
	}
	return nil
}

// engineSweepAPI is the public-API leg: one local DB, one model per
// engine via WithEngine, batched Zipf(0.99) reads — the one-liner a user
// runs to pick an engine, measured end to end through the driver seam.
func (e *Env) engineSweepAPI() error {
	s := e.Scale
	records := s.YCSBRecords
	dim := s.Dim
	workers := s.Workers
	if workers < 2 {
		workers = 2
	}
	dur := s.Duration / 2
	if dur < 200*time.Millisecond {
		dur = 200 * time.Millisecond
	}
	const batch = 256

	db, err := mlkv.Connect(e.dir("engines-api"))
	if err != nil {
		return err
	}
	defer db.Close()

	e.printf("-- public API: db.Open(id, dim, WithEngine(...)), batch=%d zipf reads --\n", batch)
	e.printf("%-8s %14s %10s\n", "engine", "keys/s", "vs-faster")
	var base float64
	for _, eng := range benchEngines {
		// ASP everywhere: non-blocking on the hybrid log, a no-op on the
		// clock-free engines, so no cell pays staleness waits.
		m, err := db.Open("engine-"+eng, dim,
			mlkv.WithEngine(eng), mlkv.WithStalenessBound(mlkv.ASP))
		if err != nil {
			return err
		}
		sess := func() (sweepSession, error) { return m.NewSession() }
		if err := loadKeys(sess, records, dim); err != nil {
			m.Close()
			return err
		}
		rate, lat, err := measureZipf(sess, records, dim, batch, workers, dur, 307)
		if cerr := m.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if eng == kv.EngineFaster {
			base = rate
		}
		e.printf("%-8s %14.0f %9.2fx\n", eng, rate, rate/base)
		r := Result{
			Name:      fmt.Sprintf("api-read/engine=%s", eng),
			OpsPerSec: rate,
			Config: map[string]any{
				"records": records, "dim": dim, "workers": workers,
				"batch": batch, "zipf": 0.99, "bound": "asp",
			},
		}
		r.SetLatency(lat)
		e.Record(r)
	}
	return nil
}
