package bench

import (
	"fmt"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// NetworkSweep measures what the serving layer costs: the same sharded
// model, loaded the same way, is driven first in-process and then through
// mlkv-server over loopback, both through the public API's GetBatch, at
// batch sizes 1, 32, and 256 keys per call. Batch size 1 pays one framed
// round trip per key and shows the wire's floor; at 256 keys per frame the
// round trip amortizes across the batch and the server fans the frame into
// the shards as one batched read, which is what lets remote throughput
// approach the in-process number.
func (e *Env) NetworkSweep() error {
	shards := e.Shards
	if shards <= 1 {
		shards = 4
	}
	workers := max(e.Scale.Workers, 2)
	vs := e.Scale.ValueSizes[0]
	dur := max(e.Scale.Duration/2, 200*time.Millisecond)
	records := e.Scale.YCSBRecords
	mem := int64(e.Scale.BufferKBs[0]) << 10

	e.printf("== Network: in-process vs loopback mlkv-server, zipfian GetBatch ==\n")
	e.printf("records=%d shards=%d workers=%d valuesize=%d buffer=%dKB\n",
		records, shards, workers, vs, e.Scale.BufferKBs[0])

	target, stop, err := serveLoopback(e.serverStore("network-server", e.Scale.BufferKBs[0], records, mlkv.ASP))
	if err != nil {
		return err
	}
	defer stop()

	var models [2]*mlkv.Model
	for i, target := range []string{e.dir("network"), target} {
		db, err := mlkv.Connect(target, mlkv.WithConns(workers))
		if err != nil {
			return err
		}
		defer db.Close()
		m, err := db.Open("network", vs/4, mlkv.WithStalenessBound(mlkv.ASP),
			mlkv.WithShards(shards), mlkv.WithMemory(mem), mlkv.WithExpectedKeys(records))
		if err != nil {
			return err
		}
		if err := ycsb.Load(m, records, 42); err != nil {
			return err
		}
		models[i] = m
	}

	e.printf("%-8s %14s %14s %8s\n", "batch", "local-keys/s", "remote-keys/s", "ratio")
	for _, batch := range []int{1, 32, 256} {
		l := loop{
			workers: workers, batch: batch, dur: dur,
			keys: zipfKeys(records, 97), read: (*mlkv.Session).GetBatch,
		}
		local, localLat, err := l.run(models[0])
		if err != nil {
			return err
		}
		remote, remoteLat, err := l.run(models[1])
		if err != nil {
			return err
		}
		e.printf("%-8d %14.0f %14.0f %7.2fx  (p99 %6.0fµs vs %6.0fµs)\n",
			batch, local, remote, local/remote,
			latency.Us(localLat.P99), latency.Us(remoteLat.P99))
		cfg := map[string]any{
			"records": records, "shards": shards, "workers": workers,
			"valuesize": vs, "buffer_kb": e.Scale.BufferKBs[0], "batch": batch,
		}
		lr := Result{Name: fmt.Sprintf("getbatch/batch=%d/local", batch), OpsPerSec: local, Config: cfg}
		lr.SetLatency(localLat)
		e.Record(lr)
		rr := Result{Name: fmt.Sprintf("getbatch/batch=%d/remote", batch), OpsPerSec: remote, Config: cfg}
		rr.SetLatency(remoteLat)
		e.Record(rr)
	}
	return nil
}
