package bench

import (
	"fmt"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/util"
)

// AllocSweep is the allocation trajectory of the remote hot path: a
// loopback mlkv-server and a public-API session issuing 256-key Zipf
// GetBatch calls, measured with testing.Benchmark so allocs/op and
// bytes/op land in BENCH_allocs.json. Both processes share this address
// space, so the numbers cover the whole path — client encode, both frame
// loops, the server's batch staging — which is what the CI allocation
// gate budgets. Run once per change that touches the serving stack; the
// committed baseline is what "zero-allocation hot path" means here.
func (e *Env) AllocSweep() error {
	const (
		records = 1 << 16
		dim     = 16
		batch   = 256
	)
	e.printf("== Allocs: remote %d-key GetBatch hot path (loopback, ASP) ==\n", batch)
	e.printf("%-28s %12s %12s %10s %14s\n", "config", "ns/op", "allocs/op", "B/op", "keys/s")

	for _, entries := range []int{0, records} {
		target, stop, err := serveLoopback(kv.ShardedConfig{
			Dir: e.dir("allocs"), MemoryBytes: 32 << 20, ExpectedKeys: records,
			StalenessBound: mlkv.ASP,
		})
		if err != nil {
			return err
		}
		res, rate, lat, err := measureRemoteAllocs(target, records, dim, batch, entries)
		stop()
		if err != nil {
			return err
		}

		name := fmt.Sprintf("remote-getbatch%d/cache=%d", batch, entries)
		e.printf("%-28s %12d %12d %10d %14.0f\n",
			name, res.NsPerOp(), res.AllocsPerOp(), res.AllocedBytesPerOp(), rate)
		r := Result{
			Name:        name,
			OpsPerSec:   rate,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Config: map[string]any{
				"records": records, "dim": dim, "batch": batch,
				"bound": "asp", "cache_entries": entries, "zipf": 0.99,
			},
		}
		r.SetLatency(lat)
		e.Record(r)
	}
	return nil
}

// measureRemoteAllocs opens the model over loopback, first-touches the
// whole key space (so the measured loop is pure steady-state reads), and
// benchmarks the Zipf GetBatch loop, recording per-call latency as it
// goes (Record is allocation-free, so the allocs/op number is unchanged
// by the measurement).
func measureRemoteAllocs(target string, records uint64, dim, batch, cacheEntries int) (testing.BenchmarkResult, float64, latency.Snapshot, error) {
	db, err := mlkv.Connect(target)
	if err != nil {
		return testing.BenchmarkResult{}, 0, latency.Snapshot{}, err
	}
	defer db.Close()
	m, err := db.Open("allocs", dim, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithCache(cacheEntries))
	if err != nil {
		return testing.BenchmarkResult{}, 0, latency.Snapshot{}, err
	}
	defer m.Close()
	sess, err := m.NewSession()
	if err != nil {
		return testing.BenchmarkResult{}, 0, latency.Snapshot{}, err
	}
	defer sess.Close()

	keys := make([]uint64, batch)
	dst := make([]float32, batch*dim)
	for base := uint64(0); base < records; base += uint64(batch) {
		for i := range keys {
			keys[i] = base + uint64(i)
		}
		if err := sess.GetBatch(keys, dst); err != nil {
			return testing.BenchmarkResult{}, 0, latency.Snapshot{}, err
		}
	}

	var lat latency.Histogram
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		lat.Reset() // keep only the final (longest) benchmark round
		zipf := util.NewScrambledZipf(util.NewRNG(7), records, 0.99)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range keys {
				keys[j] = zipf.Next()
			}
			opStart := time.Now()
			if err := sess.GetBatch(keys, dst); err != nil {
				benchErr = err
				b.FailNow()
			}
			lat.Since(opStart)
		}
	})
	if benchErr != nil {
		return res, 0, latency.Snapshot{}, benchErr
	}
	rate := float64(batch) * float64(res.N) / res.T.Seconds()
	return res, rate, lat.Snapshot(), nil
}
