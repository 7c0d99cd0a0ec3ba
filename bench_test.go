package mlkv_test

// One testing.B benchmark per paper artifact (Figures 2 and 6–11), each
// delegating to the same experiment runners that cmd/mlkv-bench uses, at
// the tiny scale so `go test -bench=.` completes in minutes. Use
// `go run ./cmd/mlkv-bench -scale small` (or paper) for the full sweeps;
// EXPERIMENTS.md records representative output.

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/bench"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/ycsb"

	mlkv "github.com/llm-db/mlkv-go"
)

func benchScale() bench.Scale {
	s := bench.Tiny
	s.MaxSamples = 2000
	s.Duration = 300 * time.Millisecond
	return s
}

func runFigure(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := bench.NewEnv(benchScale(), b.TempDir(), io.Discard)
		if err := e.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2SyncVsAsync regenerates Figure 2 (the data-stall /
// staleness problem statement).
func BenchmarkFig2SyncVsAsync(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFig6Convergence regenerates Figure 6 (end-to-end convergence,
// native in-memory vs MLKV).
func BenchmarkFig6Convergence(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFig7Backends regenerates Figure 7 (larger-than-memory
// throughput and energy across mlkv/faster and buffer sizes).
func BenchmarkFig7Backends(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig8Staleness regenerates Figure 8 (throughput vs quality
// across staleness bounds).
func BenchmarkFig8Staleness(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFig9Lookahead regenerates Figure 9 (look-ahead prefetching and
// the BETA ordering).
func BenchmarkFig9Lookahead(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFig10YCSB regenerates Figure 10 (YCSB, MLKV vs FASTER).
func BenchmarkFig10YCSB(b *testing.B) { runFigure(b, "fig10") }

// BenchmarkFig11EBay regenerates Figure 11 (eBay-like case studies).
func BenchmarkFig11EBay(b *testing.B) { runFigure(b, "fig11") }

// BenchmarkLatency runs the tail-latency sweep (Zipf reads across
// workers × batch on the in-process and loopback tiers, hot tier off and
// on — the tracked BENCH_latency.json sweep).
func BenchmarkLatency(b *testing.B) { runFigure(b, "latency") }

// BenchmarkGetPut measures raw single-key Get+Put latency through the
// public API with the clock enabled (micro-benchmark, not a paper figure).
func BenchmarkGetPut(b *testing.B) {
	db, err := mlkv.Connect(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open("bench", 16, mlkv.WithMemory(64<<20), mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	emb := make([]float32, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%100000 + 1)
		if err := s.Get(k, emb); err != nil {
			b.Fatal(err)
		}
		if err := s.Put(k, emb); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardedZipf measures the same Zipf 90/10 read/update KV mix over a
// model hash-partitioned across the given shard count, with the total
// memory budget held fixed and writes not fsynced per page (the public API
// has no such option). The 1-vs-4 pair shows what the shard router buys:
// concurrent sessions contend on four log tails and indexes instead of one.
func benchShardedZipf(b *testing.B, shards int) {
	b.Helper()
	const records = 1 << 19
	m := openYCSBModel(b, records, mlkv.WithShards(shards), mlkv.WithMemory(128*1024*(64+24)))
	if err := ycsb.Load(m, records, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := ycsb.Run(ycsb.Options{
		Model: m, Records: records, Threads: 8,
		ReadFraction: 0.9, Dist: ycsb.Zipfian,
		MaxOps: int64(b.N) + 1000, Seed: 2, SkipLoad: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput, "ops/s")
}

// openYCSBModel opens a local ASP model of 64-byte rows for records keys
// under a temp dir, through the public API.
func openYCSBModel(b *testing.B, records uint64, opts ...mlkv.Option) *mlkv.Model {
	b.Helper()
	db, err := mlkv.Connect(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	opts = append(opts, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithExpectedKeys(records))
	m, err := db.Open("ycsb", 16, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkZipfUnsharded is the 1-shard baseline for the sharding pair.
func BenchmarkZipfUnsharded(b *testing.B) { benchShardedZipf(b, 1) }

// BenchmarkZipfSharded4 runs the same workload hash-partitioned across 4
// store instances under the same total memory budget.
func BenchmarkZipfSharded4(b *testing.B) { benchShardedZipf(b, 4) }

// remoteBenchRecords/Dim fix the configuration the remote hot-path
// harness measures; the CI allocation gate and the benchmarks share it,
// so the committed budget and the tracked trajectory describe the same
// setup.
const (
	remoteBenchRecords = 1 << 16
	remoteBenchDim     = 16
)

// newRemoteBenchSession starts a single-shard loopback mlkv-server,
// opens one model through the public API (with a client-side hot tier
// when cacheEntries > 0), and first-touches the whole key space so the
// caller's measured loop is pure steady-state reads (the first-touch
// init/write-back path allocates by design — per-key RNG seeding and a
// write-back round trip). Everything tears down via tb.Cleanup.
func newRemoteBenchSession(tb testing.TB, batch, cacheEntries int) (*mlkv.Session, []uint64, []float32) {
	tb.Helper()
	dir := tb.TempDir()
	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: dir, MemoryBytes: 32 << 20, ExpectedKeys: remoteBenchRecords,
		StalenessBound: faster.BoundAsync,
	}})
	tb.Cleanup(func() { reg.Close() })
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	})

	db, err := mlkv.Connect(mlkv.Scheme + ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	opts := []mlkv.Option{mlkv.WithStalenessBound(mlkv.ASP)}
	if cacheEntries > 0 {
		opts = append(opts, mlkv.WithCache(cacheEntries))
	}
	m, err := db.Open("allocbench", remoteBenchDim, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() })
	s, err := m.NewSession()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)

	keys := make([]uint64, batch)
	dst := make([]float32, batch*remoteBenchDim)
	for base := uint64(0); base < remoteBenchRecords; base += uint64(batch) {
		for i := range keys {
			keys[i] = base + uint64(i)
		}
		if err := s.GetBatch(keys, dst); err != nil {
			tb.Fatal(err)
		}
	}
	return s, keys, dst
}

// benchRemoteGetBatch measures the remote hot read path end to end: a
// loopback mlkv-server and a public-API session issuing Zipf-skewed
// GetBatch calls of the given batch size. ReportAllocs makes it the
// allocation trajectory for the whole client+server path (both run in
// this process), which BENCH_allocs.json and the CI allocation gate
// track.
func benchRemoteGetBatch(b *testing.B, batch int, cacheEntries int) {
	b.Helper()
	s, keys, dst := newRemoteBenchSession(b, batch, cacheEntries)
	zipf := util.NewScrambledZipf(util.NewRNG(7), remoteBenchRecords, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = zipf.Next()
		}
		if err := s.GetBatch(keys, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkRemoteGetBatch256 is the remote 256-key hot read path the
// allocation-regression gate budgets (see TestRemoteGetBatchAllocBudget).
func BenchmarkRemoteGetBatch256(b *testing.B) { benchRemoteGetBatch(b, 256, 0) }

// BenchmarkRemoteGetBatch256Cached is the same path with the client-side
// hot tier enabled, at a capacity covering the whole key space.
func BenchmarkRemoteGetBatch256Cached(b *testing.B) { benchRemoteGetBatch(b, 256, 1<<16) }

// BenchmarkYCSBZipfian measures raw KV throughput under YCSB-A skew
// (micro-benchmark feeding Figure 10's shape).
func BenchmarkYCSBZipfian(b *testing.B) {
	m := openYCSBModel(b, 1<<16, mlkv.WithMemory(16*1024*(64+24)))
	if err := ycsb.Load(m, 1<<16, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := ycsb.Run(ycsb.Options{
		Model: m, Records: 1 << 16, Threads: 4,
		ReadFraction: 0.5, Dist: ycsb.Zipfian,
		MaxOps: int64(b.N) + 1000, Seed: 2, SkipLoad: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput, "ops/s")
}
