package ycsb

import (
	"errors"
	"math"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
)

// testDim is a 64-byte row, the value size the paper's YCSB runs default to.
const testDim = 16

// openModel opens a local model under a temp dir with four default-size
// log pages of memory, so the tests' 5 000-record loads spill to disk.
func openModel(t *testing.T, bound int64) *mlkv.Model {
	t.Helper()
	db, err := mlkv.Connect(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := db.Open("ycsb", testDim, mlkv.WithStalenessBound(bound),
		mlkv.WithMemory(4*1024*(testDim*4+24)), mlkv.WithExpectedKeys(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// peekBack requires every key in [0, records) to hold FillValue(key, seed)
// bit for bit: a load that lost or mangled a row, or a run that overwrote
// or first-touched one, fails it.
func peekBack(t *testing.T, m *mlkv.Model, records, seed uint64) {
	t.Helper()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, want := make([]float32, m.Dim()), make([]float32, m.Dim())
	for k := uint64(0); k < records; k++ {
		found, err := s.Peek(k, got)
		if err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v after load", k, found, err)
		}
		FillValue(want, k, seed)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("key %d float %d = %v, want %v", k, i, got[i], want[i])
			}
		}
	}
}

func TestYCSBUniform(t *testing.T) {
	m := openModel(t, mlkv.Disabled)
	res, err := Run(Options{
		Model: m, Records: 5000, Threads: 4,
		ReadFraction: 0.5, Dist: Uniform, MaxOps: 20000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 20000 {
		t.Fatalf("ran %d ops, want >= 20000", res.Ops)
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
	// The default bound, ASP: no read waits, so no clock runs — the
	// Figure 10 configuration.
	res, err := Run(Options{
		Model: openModel(t, mlkv.ASP), Records: 5000, Threads: 4,
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

// TestYCSBSkipLoad runs read-only over an explicit Load: every loaded row
// reads back as written before the run and after it, so the run found
// every key (a miss would have first-touched it with another value).
func TestYCSBSkipLoad(t *testing.T) {
	m := openModel(t, mlkv.Disabled)
	if err := Load(m, 1000, 3); err != nil {
		t.Fatal(err)
	}
	peekBack(t, m, 1000, 3)
	res, err := Run(Options{
		Model: m, Records: 1000, Threads: 2,
		ReadFraction: 1.0, Dist: Uniform, MaxOps: 5000, Seed: 3, SkipLoad: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 0 {
		t.Fatal("read-only run performed updates")
	}
	peekBack(t, m, 1000, 3)
}

// TestYCSBStops covers the graceful-interrupt path: a Stop closed during
// the load phase ends Run with ErrLoadInterrupted, and one closed during
// the run phase ends an otherwise unbounded run promptly with a usable
// partial result.
func TestYCSBStops(t *testing.T) {
	m := openModel(t, mlkv.Disabled)
	// A stop closed before Run starts cuts the load phase short.
	stopped := make(chan struct{})
	close(stopped)
	if _, err := Run(Options{Model: m, Records: 2000, Stop: stopped}); !errors.Is(err, ErrLoadInterrupted) {
		t.Fatalf("Run with a closed stop: %v, want ErrLoadInterrupted", err)
	}
	// The run phase: loaded first, so the stop can only land in the run.
	if err := Load(m, 2000, 4); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	res, err := Run(Options{
		Model: m, Records: 2000, Threads: 4,
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
