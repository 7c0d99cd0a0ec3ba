// Command mlkv-ycsb runs the YCSB-style NoSQL benchmark (Figure 10)
// against the MLKV/FASTER engine — in-process, optionally hash-partitioned
// across multiple shards (-shards), or against a remote mlkv-server
// (-addr), opening the named model (-model, created on first open) with
// every client thread on its own pooled connection and the load phase
// shipping batched frames.
//
// Usage:
//
//	mlkv-ycsb -records 1000000 -ops 5000000 -threads 8 -dist zipfian \
//	          -valuesize 64 -buffer-mb 64 -engine mlkv -shards 4
//	mlkv-ycsb -addr 127.0.0.1:7070 -records 100000 -ops 1000000 -threads 8
//
// Results include per-op-class latency percentiles (read and update
// p50/p99/p999 in microseconds) alongside throughput, recorded across
// every client thread by the always-on histograms.
//
// SIGINT/SIGTERM end the run gracefully: workers finish their current
// operation, the partial result — counters and latency lines covering
// the partial run — and engine counters print, and (locally, with -sync)
// the store is checkpointed. A second signal exits immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/llm-db/mlkv-go/internal/driver"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

func main() {
	var (
		records  = flag.Uint64("records", 1<<20, "number of preloaded records")
		ops      = flag.Int64("ops", 1<<21, "operations to run")
		threads  = flag.Int("threads", 8, "client threads")
		distName = flag.String("dist", "zipfian", "request distribution (uniform|zipfian)")
		vs       = flag.Int("valuesize", 64, "value size in bytes (local store)")
		bufferMB = flag.Int("buffer-mb", 64, "in-memory buffer budget (total, split across shards)")
		engine   = flag.String("engine", "mlkv", "engine (mlkv|faster)")
		readFrac = flag.Float64("read-fraction", 0.5, "fraction of reads")
		dir      = flag.String("dir", "", "data directory (default: temp)")
		shards   = flag.Int("shards", 1, "hash partitions (independent store instances)")
		sync     = flag.Bool("sync", false, "fsync every flushed log page; checkpoint at the end")
		addr     = flag.String("addr", "", "run against a remote mlkv-server at this address instead of in-process")
		model    = flag.String("model", "ycsb", "model name to open on the remote server")
		cache    = flag.Int("cache", 0, "staleness-aware hot-tier capacity in entries, layered client-side over the store (0 disables)")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be >= 1, got %d\n", *shards)
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

	var store kv.Store
	if *addr != "" {
		// Remote: open the named model on the server (created on first
		// open; the server owns buffer sizing). Models are float32-typed,
		// so -valuesize must be a multiple of 4. One pooled connection
		// per client thread keeps the fan-out on the server's side equal
		// to the local run's session count.
		if *vs%4 != 0 {
			fmt.Fprintf(os.Stderr, "-valuesize must be a multiple of 4 for a remote model, got %d\n", *vs)
			os.Exit(2)
		}
		cl, err := driver.DialKV(*addr, *model, *vs/4, *threads)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		store = cl
		fmt.Printf("remote store %s model %q at %s: valuesize=%d shards=%d\n",
			cl.Name(), *model, *addr, cl.ValueSize(), cl.Shards())
	} else {
		bound := faster.BoundAsync // MLKV: clock maintained, never blocks
		if *engine == "faster" {
			bound = -1
		}
		d := *dir
		if d == "" {
			var err error
			d, err = os.MkdirTemp("", "mlkv-ycsb-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer os.RemoveAll(d)
		}
		var err error
		store, err = kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
			Dir: d, Shards: *shards, ValueSize: *vs, RecordsPerPage: 256,
			MemoryBytes: int64(*bufferMB) << 20, ExpectedKeys: *records,
			StalenessBound: bound, SyncWrites: *sync,
		}, *engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *cache > 0 {
		// The tier sits above whichever store the flags picked — local
		// shards or a remote model — and serves hot keys within the
		// staleness bound without touching it.
		store = kv.WrapCached(store, *cache)
	}
	defer store.Close()

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
		Store: store, Records: *records, Threads: *threads,
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
	if *sync && *addr == "" {
		if err := store.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
		}
	}
	fmt.Printf("engine=%s dist=%s threads=%d valuesize=%d shards=%d\n",
		store.Name(), dist, *threads, store.ValueSize(), store.Shards())
	fmt.Printf("ops=%d reads=%d updates=%d elapsed=%s throughput=%.0f ops/s\n",
		res.Ops, res.Reads, res.Updates, res.Elapsed.Round(1e6), res.Throughput)
	printLatency("read", res.ReadLat)
	printLatency("update", res.UpdateLat)
	s := store.Stats()
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
func printLatency(class string, s latency.Snapshot) {
	if s.Count == 0 {
		return
	}
	fmt.Printf("%s latency (µs): p50=%.1f p99=%.1f p999=%.1f max=%.1f (n=%d)\n",
		class, latency.Us(s.P50), latency.Us(s.P99), latency.Us(s.P999),
		latency.Us(s.Max), s.Count)
}
