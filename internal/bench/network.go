package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/util"
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
	workers := e.Scale.Workers
	if workers < 2 {
		workers = 2
	}
	vs := e.Scale.ValueSizes[0]
	dur := e.Scale.Duration / 2
	if dur < 200*time.Millisecond {
		dur = 200 * time.Millisecond
	}
	records := e.Scale.YCSBRecords
	mem := int64(e.Scale.BufferKBs[0]) << 10

	e.printf("== Network: in-process vs loopback mlkv-server, zipfian GetBatch ==\n")
	e.printf("records=%d shards=%d workers=%d valuesize=%d buffer=%dKB\n",
		records, shards, workers, vs, e.Scale.BufferKBs[0])

	// The server opens its model the way a local Open does: the table's
	// default page size, the same memory and index budgets.
	serverDir := e.dir("network-server")
	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: serverDir, RecordsPerPage: 1024, MemoryBytes: mem, ExpectedKeys: records,
		StalenessBound: mlkv.ASP,
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

	var models [2]*mlkv.Model
	for i, target := range []string{e.dir("network"), mlkv.Scheme + ln.Addr().String()} {
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
		local, localLat, err := measureGetBatch(models[0], records, batch, workers, dur)
		if err != nil {
			return err
		}
		remote, remoteLat, err := measureGetBatch(models[1], records, batch, workers, dur)
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

// measureGetBatch runs workers sessions issuing zipfian GetBatch calls of
// the given batch size for roughly dur, returning keys read per second
// and the per-call latency distribution across every worker.
func measureGetBatch(m *mlkv.Model, records uint64, batch, workers int, dur time.Duration) (float64, latency.Snapshot, error) {
	dim := m.Dim()
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
			s, err := m.NewSession()
			if err != nil {
				fail(err)
				return
			}
			defer s.Close()
			zipf := util.NewScrambledZipf(util.NewRNG(uint64(97+w)), records, 0.99)
			keys := make([]uint64, batch)
			vals := make([]float32, batch*dim)
			for time.Since(start) < dur {
				for i := range keys {
					keys[i] = zipf.Next()
				}
				opStart := time.Now()
				if err := s.GetBatch(keys, vals); err != nil {
					fail(err)
					return
				}
				lat.Since(opStart)
				keysRead.Add(int64(batch))
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, latency.Snapshot{}, fmt.Errorf("bench: network measure: %w", firstErr)
	}
	elapsed := time.Since(start).Seconds()
	return float64(keysRead.Load()) / elapsed, lat.Snapshot(), nil
}
