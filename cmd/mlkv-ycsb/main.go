// Command mlkv-ycsb runs the YCSB-style NoSQL benchmark (Figure 10)
// through the public API, against any target mlkv.Connect takes: a local
// directory (-dir, default a temp dir), one mlkv-server (-addr host:port)
// or a cluster (-addr with a comma-separated seed list). It opens the named
// model (-model, created on first open) with dim = -valuesize/4, gives
// every client thread its own session (and, remotely, its own pooled
// connection), and loads in 1 024-key batches. A local model opens under
// the default bound, ASP, sized by -shards and -buffer-mb; a server owns
// its models' bound and sizing.
//
// Usage:
//
//	mlkv-ycsb -records 1000000 -ops 5000000 -threads 8 -dist zipfian \
//	          -valuesize 64 -buffer-mb 64 -shards 4
//	mlkv-ycsb -addr 127.0.0.1:7070 -records 100000 -ops 1000000 -threads 8
//	mlkv-ycsb -addr 127.0.0.1:7070,127.0.0.1:7071 -records 100000
//
// Results include per-op-class latency percentiles (read and update
// p50/p99/p999 in microseconds) alongside throughput, from the model's own
// Stats().LatGet and LatPut; the load's PutBatch calls are not in them.
//
// SIGINT/SIGTERM end the run gracefully: workers finish their current
// operation, and the partial result — counters and latency lines covering
// the partial run — and the model's counters print. A second signal exits
// immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

func main() {
	var (
		records  = flag.Uint64("records", 1<<20, "number of preloaded records")
		ops      = flag.Int64("ops", 1<<21, "operations to run")
		threads  = flag.Int("threads", 8, "client threads")
		distName = flag.String("dist", "zipfian", "request distribution (uniform|zipfian)")
		vs       = flag.Int("valuesize", 64, "value size in bytes (a multiple of 4: rows of valuesize/4 float32s)")
		bufferMB = flag.Int("buffer-mb", 64, "in-memory buffer budget (total, split across shards; local targets)")
		readFrac = flag.Float64("read-fraction", 0.5, "fraction of reads")
		dir      = flag.String("dir", "", "data directory (default: temp)")
		shards   = flag.Int("shards", 1, "hash partitions (independent store instances; local targets)")
		addr     = flag.String("addr", "", "run against a remote mlkv-server (or a comma-separated cluster seed list) instead of in-process")
		model    = flag.String("model", "ycsb", "model name to open")
		cache    = flag.Int("cache", 0, "staleness-aware hot-tier capacity in entries, in front of the model (0 disables)")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	if *vs <= 0 || *vs%4 != 0 {
		fmt.Fprintf(os.Stderr, "-valuesize must be a positive multiple of 4, got %d\n", *vs)
		os.Exit(2)
	}

	var dist ycsb.Distribution
	switch *distName {
	case "uniform":
		dist = ycsb.Uniform
	case "zipfian":
		dist = ycsb.Zipfian
	default:
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *distName)
		os.Exit(2)
	}
	// One open path for every target: a directory, mlkv://host:port, or
	// mlkv://a,b,c. A remote pool gets one connection per client thread,
	// so the server sees the same session fan-out a local run has. A
	// server owns its models' bound and sizing; a local directory takes
	// them from the flags.
	target := *dir
	mopts := []mlkv.Option{mlkv.WithCache(*cache)}
	if *addr != "" {
		target = mlkv.Scheme + *addr
	} else {
		if target == "" {
			d, err := os.MkdirTemp("", "mlkv-ycsb-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer os.RemoveAll(d)
			target = d
		}
		mopts = append(mopts, mlkv.WithShards(*shards),
			mlkv.WithMemory(int64(*bufferMB)<<20), mlkv.WithExpectedKeys(*records))
	}
	db, err := mlkv.Connect(target, mlkv.WithConns(*threads))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	m, err := db.Open(*model, *vs/4, mopts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer m.Close()
	fmt.Printf("model %q at %s: engine=%s valuesize=%d shards=%d\n",
		m.ID(), db.Target(), m.EngineName(), m.Dim()*4, m.Shards())

	// Graceful interrupt: close the stop channel so workers wind down and
	// the partial result prints; a second signal force-exits.
	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Println("\ninterrupt: draining workers (again to force exit)")
		close(stop)
		<-sigCh
		fmt.Fprintln(os.Stderr, "forced exit")
		os.Exit(130)
	}()

	fmt.Printf("loading %d records...\n", *records)
	res, err := ycsb.Run(ycsb.Options{
		Model: m, Records: *records, Threads: *threads,
		ReadFraction: *readFrac, Dist: dist, MaxOps: *ops, Seed: 42,
		Stop: stop,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, ycsb.ErrLoadInterrupted) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	fmt.Printf("engine=%s dist=%s threads=%d valuesize=%d shards=%d\n",
		m.EngineName(), dist, *threads, m.Dim()*4, m.Shards())
	fmt.Printf("ops=%d reads=%d updates=%d elapsed=%s throughput=%.0f ops/s\n",
		res.Ops, res.Reads, res.Updates, res.Elapsed.Round(1e6), res.Throughput)
	s := m.Stats()
	printLatency("read", s.LatGet)
	printLatency("update", s.LatPut)
	fmt.Printf("store: gets=%d puts=%d memhits=%d diskreads=%d inplace=%d rcu=%d flushed=%dB\n",
		s.Gets, s.Puts, s.MemHits, s.DiskReads, s.InPlaceUpdates, s.RCUAppends, s.BytesFlushed)
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		fmt.Printf("cache: hits=%d misses=%d evictions=%d hit-rate=%.1f%%\n",
			s.CacheHits, s.CacheMisses, s.CacheEvictions, 100*float64(s.CacheHits)/float64(total))
	}
}

// printLatency renders one op class's percentile line in microseconds.
// On a graceful early stop the snapshot covers the partial run, so the
// line still prints; a class with no operations is skipped.
func printLatency(class string, s mlkv.LatencySummary) {
	if s.Count == 0 {
		return
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	fmt.Printf("%s latency (µs): p50=%.1f p99=%.1f p999=%.1f max=%.1f (n=%d)\n",
		class, us(s.P50), us(s.P99), us(s.P999), us(s.Max), s.Count)
}
