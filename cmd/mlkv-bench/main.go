// Command mlkv-bench regenerates the paper's tables and figures, plus the
// post-paper sharding and network-serving sweeps. Every experiment drives
// the public API: models open through mlkv.Connect + db.Open, on a local
// directory or an in-process loopback mlkv-server.
//
// Usage:
//
//	mlkv-bench -experiment fig7 -scale small -workdir /tmp/mlkv-bench
//	mlkv-bench -experiment shards -scale small
//	mlkv-bench -experiment network -scale small
//	mlkv-bench -experiment latency -scale small -json .
//
// Experiments: fig2 fig6 fig7 fig8 fig9 fig10 fig11 shards network cache
// allocs latency cluster failover all. Scales: tiny (seconds), small
// (minutes, default), paper (hours). -shards partitions every model the
// training figures (2, 6–9, 11) open (the "shards" experiment sweeps shard
// counts itself; "fig10" runs YCSB once per point at ASP, where MLKV runs
// no clock and is FASTER's protocol; "network" compares in-process against
// a loopback mlkv-server at batch sizes 1/32/256; "latency" maps the read
// path's p50/p99/p999 tail across offered load — workers × batch,
// in-process and loopback, hot tier off and on, and a loopback server's
// flusher unpaced and paced (kv.ShardedConfig.FlushPace, what
// mlkv-server -flush-pace sets) under a concurrent writer; "cluster" runs
// the Zipf workload against one loopback node vs a three-node cluster —
// two primaries plus a read replica — at batch 1/256 under ASP and SSP).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/llm-db/mlkv-go/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (fig2|fig6|fig7|fig8|fig9|fig10|fig11|shards|network|cache|allocs|latency|cluster|all)")
		scaleName  = flag.String("scale", "small", "workload scale (tiny|small|paper)")
		workdir    = flag.String("workdir", "", "scratch directory for store data (default: a temp dir)")
		shards     = flag.Int("shards", 1, "hash partitions for every model the training figures (2, 6-9, 11) open")
		jsonDir    = flag.String("json", "", "directory to write machine-readable BENCH_<experiment>.json results into (empty disables)")
	)
	flag.Parse()

	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dir := *workdir
	if dir == "" {
		dir, err = os.MkdirTemp("", "mlkv-bench-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
	}
	fmt.Printf("mlkv-bench: scale=%s workdir=%s shards=%d\n", scale.Name, dir, *shards)
	env := bench.NewEnv(scale, dir, os.Stdout)
	env.Shards = *shards
	env.JSONDir = *jsonDir
	if err := env.Run(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "mlkv-bench:", err)
		os.Exit(1)
	}
}
