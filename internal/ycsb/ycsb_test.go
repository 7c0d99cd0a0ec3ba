package ycsb

import (
	"errors"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
)

func fasterStore(t *testing.T, bound int64) kv.Store {
	t.Helper()
	name := "faster"
	if bound >= 0 {
		name = "mlkv"
	}
	s, err := kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
		Dir: t.TempDir(), ValueSize: 64, MemoryBytes: 16 * 256 * (64 + 24),
		StalenessBound: bound, ExpectedKeys: 1 << 14,
	}, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestYCSBUniform(t *testing.T) {
	res, err := Run(Options{
		Store: fasterStore(t, -1), Records: 5000, Threads: 4,
		ReadFraction: 0.5, Dist: Uniform, MaxOps: 20000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 20000 {
		t.Fatalf("ran %d ops, want >= 20000", res.Ops)
	}
	if res.NotFound > 0 {
		t.Fatalf("%d reads missed despite full preload", res.NotFound)
	}
	if res.Reads == 0 || res.Updates == 0 {
		t.Fatal("mix not exercised")
	}
	frac := float64(res.Reads) / float64(res.Reads+res.Updates)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("read fraction %.3f, want ~0.5", frac)
	}
}

func TestYCSBZipfian(t *testing.T) {
	// MLKV with ASP bound: vector clock maintained, never blocks — this is
	// the Figure 10 configuration measuring clock overhead.
	res, err := Run(Options{
		Store: fasterStore(t, faster.BoundAsync), Records: 5000, Threads: 4,
		ReadFraction: 0.5, Dist: Zipfian, MaxOps: 20000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 20000 {
		t.Fatalf("ran %d ops", res.Ops)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestYCSBSkipLoad(t *testing.T) {
	store := fasterStore(t, -1)
	if err := Load(store, 1000, 3); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Store: store, Records: 1000, Threads: 2,
		ReadFraction: 1.0, Dist: Uniform, MaxOps: 5000, Seed: 3, SkipLoad: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NotFound > 0 {
		t.Fatalf("%d misses after explicit load", res.NotFound)
	}
	if res.Updates != 0 {
		t.Fatal("read-only run performed updates")
	}
}

// TestYCSBStops covers the graceful-interrupt path: a Stop closed during
// the load phase ends Run with ErrLoadInterrupted, and one closed during
// the run phase ends an otherwise unbounded run promptly with a usable
// partial result.
func TestYCSBStops(t *testing.T) {
	store := fasterStore(t, -1)
	// A stop closed before Run starts cuts the load phase short.
	stopped := make(chan struct{})
	close(stopped)
	if _, err := Run(Options{Store: store, Records: 2000, Stop: stopped}); !errors.Is(err, ErrLoadInterrupted) {
		t.Fatalf("Run with a closed stop: %v, want ErrLoadInterrupted", err)
	}
	// The run phase: loaded first, so the stop can only land in the run.
	if err := Load(store, 2000, 4); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	res, err := Run(Options{
		Store: store, Records: 2000, Threads: 4,
		ReadFraction: 0.5, Dist: Uniform, Seed: 4,
		Duration: time.Hour, Stop: stop, SkipLoad: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stop took %s", elapsed)
	}
	if res.Ops == 0 {
		t.Fatal("no partial result survived the stop")
	}
}
