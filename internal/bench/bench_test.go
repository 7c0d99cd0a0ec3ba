package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/train"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// TestAllFiguresRunAtTinyScale is the harness integration test: every
// experiment must execute end to end and emit its table.
func TestAllFiguresRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	e := NewEnv(Tiny, t.TempDir(), &out)
	for _, fig := range []string{"fig2", "fig8", "fig10"} {
		if err := e.Run(fig); err != nil {
			t.Fatalf("%s: %v\noutput so far:\n%s", fig, err, out.String())
		}
	}
	s := out.String()
	for _, want := range []string{"Figure 2", "Figure 8", "Figure 10", "fully-async", "ops/s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestShardSweepRunsAtTinyScale covers the post-paper sharding experiment:
// it must run every shard count end to end and report a speedup column.
func TestShardSweepRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	e := NewEnv(Tiny, t.TempDir(), &out)
	if err := e.Run("shards"); err != nil {
		t.Fatalf("shards: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"Sharding", "speedup", "shards"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestFiguresRunSharded re-runs a figure with every table partitioned,
// covering the Env.Shards threading end to end.
func TestFiguresRunSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	e := NewEnv(Tiny, t.TempDir(), &out)
	e.Shards = 2
	if err := e.Run("fig8"); err != nil {
		t.Fatalf("fig8 sharded: %v\n%s", err, out.String())
	}
}

func TestFig9And11(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	sc := Tiny
	sc.MaxSamples = 1500
	sc.Duration = 300 * time.Millisecond
	e := NewEnv(sc, t.TempDir(), &out)
	for _, fig := range []string{"fig9", "fig11"} {
		if err := e.Run(fig); err != nil {
			t.Fatalf("%s: %v\n%s", fig, err, out.String())
		}
	}
	if !strings.Contains(out.String(), "BETA") && !strings.Contains(out.String(), "beta") {
		t.Fatal("fig9b output missing BETA variants")
	}
}

func TestFig6And7(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	sc := Tiny
	sc.MaxSamples = 1200
	sc.Duration = 300 * time.Millisecond
	e := NewEnv(sc, t.TempDir(), &out)
	for _, fig := range []string{"fig6", "fig7"} {
		if err := e.Run(fig); err != nil {
			t.Fatalf("%s: %v\n%s", fig, err, out.String())
		}
	}
	for _, want := range []string{"mlkv", "faster", "J/batch", "native"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"tiny", "small", "paper", ""} {
		if _, err := ScaleByName(n); err != nil {
			t.Fatalf("scale %q rejected: %v", n, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestJoulesPerBatch(t *testing.T) {
	res := &train.Result{Samples: 1000}
	res.Stage.Emb = 2 * time.Second
	res.Stage.Forward = 1 * time.Second
	res.Stage.Backward = 1 * time.Second
	j := JoulesPerBatch(res, 32)
	if j <= 0 {
		t.Fatalf("J/batch = %v", j)
	}
	// More stall time must cost more energy per batch (same sample count).
	res2 := &train.Result{Samples: 1000}
	res2.Stage.Emb = 8 * time.Second
	res2.Stage.Forward = 1 * time.Second
	res2.Stage.Backward = 1 * time.Second
	if JoulesPerBatch(res2, 32) <= j {
		t.Fatal("stall time should increase energy per batch")
	}
	if JoulesPerBatch(&train.Result{}, 32) != 0 {
		t.Fatal("empty result should cost 0")
	}
	_ = models.FFNN
	_ = data.CTRConfig{}
}

// BenchmarkCTRSampleBatched backs the CI bench-smoke: one DLRM training
// sample per iteration over an in-memory backend, so a -benchtime=1x run
// exercises the full step pipeline.
func BenchmarkCTRSampleBatched(b *testing.B) {
	gen := data.NewCTRGen(data.CTRConfig{Fields: 4, DenseDim: 2, FieldCard: 2000, Seed: 3})
	model := models.NewDLRM(models.FFNN, 4, 8, 2, []int{16}, 5)
	backend := train.NewMemBackend("mem", 8, nil)
	res, err := train.TrainCTR(train.CTROptions{
		Gen: gen, Model: model, Backend: backend,
		Workers: 1, Batch: 32, Mode: train.ModeAsync,
		DenseLR: 0.05, EmbLR: 0.05,
		MaxSamples: int64(b.N),
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Samples < int64(b.N) {
		b.Fatalf("trained %d of %d samples", res.Samples, b.N)
	}
}

// TestNetworkSweepRunsAtTinyScale covers the serving-layer experiment:
// local vs loopback throughput must be measured at every batch size.
func TestNetworkSweepRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	e := NewEnv(Tiny, t.TempDir(), &out)
	if err := e.Run("network"); err != nil {
		t.Fatalf("network: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"loopback", "remote-keys/s", "ratio", "256"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// TestLatencySweepRunsAtTinyScale covers the tail-latency experiment:
// every (tier, cache, batch, workers) cell must run end to end, and every
// recorded result must carry non-zero percentiles — the invariant the
// committed BENCH_latency.json depends on.
func TestLatencySweepRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	sc := Tiny
	sc.Duration = 200 * time.Millisecond
	e := NewEnv(sc, t.TempDir(), &out)
	if err := e.Run("latency"); err != nil {
		t.Fatalf("latency: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"local", "remote", "p99-µs", "p999-µs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	// 6 legs — local and remote × 2 cache settings each and the remote
	// flush-pace pair (unpaced vs paced) — each swept over 2 batch sizes ×
	// len(Threads) workers.
	if want := 6 * 2 * len(sc.Threads); len(e.results) != want {
		t.Fatalf("recorded %d results, want %d", len(e.results), want)
	}
	for _, r := range e.results {
		if r.P50Us <= 0 || r.P99Us <= 0 || r.P999Us <= 0 || r.P99Us < r.P50Us {
			t.Fatalf("%s: implausible percentiles p50=%v p90=%v p99=%v p999=%v",
				r.Name, r.P50Us, r.P90Us, r.P99Us, r.P999Us)
		}
	}
}

// TestClusterSweepRunsAtTinyScale covers the routing-layer experiment:
// both node counts must run both bounds and batch sizes end to end, every
// recorded row must carry real percentiles, and the three-node rows must
// actually have used the replica (the ASP leg reads through it).
func TestClusterSweepRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	sc := Tiny
	sc.Duration = 200 * time.Millisecond
	e := NewEnv(sc, t.TempDir(), &out)
	if err := e.Run("cluster"); err != nil {
		t.Fatalf("cluster: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"Cluster", "nodes", "asp", "ssp", "replica-reads", "p99-µs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	// 2 node counts × 2 bounds × 2 batch sizes.
	if want := 2 * 2 * 2; len(e.results) != want {
		t.Fatalf("recorded %d results, want %d", len(e.results), want)
	}
	for _, r := range e.results {
		if r.OpsPerSec <= 0 || r.P50Us <= 0 || r.P99Us <= 0 || r.P99Us < r.P50Us {
			t.Fatalf("%s: implausible row rate=%v p50=%v p99=%v", r.Name, r.OpsPerSec, r.P50Us, r.P99Us)
		}
	}
}

// BenchmarkCluster backs the CI bench-smoke for the routing layer: each
// iteration is one batch-256 ASP GetBatch routed across a three-node
// loopback cluster with read replicas on.
func BenchmarkCluster(b *testing.B) {
	e := NewEnv(Tiny, b.TempDir(), io.Discard)
	const records, dim, batch = 1 << 10, 8, 256
	target, teardown, err := e.clusterNodes(3, records, 256)
	if err != nil {
		b.Fatal(err)
	}
	defer teardown()
	db, err := mlkv.Connect(target, mlkv.WithConns(2), mlkv.WithReadReplicas())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open("bench", dim, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	if err := ycsb.Load(m, records, 3); err != nil {
		b.Fatal(err)
	}
	s, err := m.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]uint64, batch)
	dst := make([]float32, batch*dim)
	zipf := util.NewScrambledZipf(util.NewRNG(17), records, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = zipf.Next()
		}
		if err := s.GetBatch(keys, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFailoverSweepRunsAtTinyScale covers the failover experiment: every
// kill-the-primary trial must recover within its budget and the recorded
// result must carry a real recovery-latency distribution.
func TestFailoverSweepRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness; skipped in -short")
	}
	var out bytes.Buffer
	e := NewEnv(Tiny, t.TempDir(), &out)
	if err := e.Run("failover"); err != nil {
		t.Fatalf("failover: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"Failover", "kill-to-first-acked-write", "recovery-ms", "suspect-after"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if len(e.results) != 1 {
		t.Fatalf("recorded %d results, want 1", len(e.results))
	}
	r := e.results[0]
	if r.P50Us <= 0 || r.P999Us < r.P50Us {
		t.Fatalf("%s: implausible recovery percentiles p50=%v p999=%v", r.Name, r.P50Us, r.P999Us)
	}
	// Recovery must beat the detector's worst case by a wide margin of the
	// configured timeouts, not scrape the 30s trial budget.
	if r.P999Us > 10e6 {
		t.Fatalf("%s: recovery p999 %vµs exceeds 10s", r.Name, r.P999Us)
	}
}

// BenchmarkFailover backs the CI bench-smoke for the failover path: each
// iteration is one full kill-the-primary cycle — detect, promote, and ack
// a client write on the new topology.
func BenchmarkFailover(b *testing.B) {
	e := NewEnv(Tiny, b.TempDir(), io.Discard)
	for i := 0; i < b.N; i++ {
		if _, err := e.failoverTrial(i, failoverBenchHealth); err != nil {
			b.Fatal(err)
		}
	}
}
