// Command mlkv-train trains one embedding model on a synthetic workload
// over a chosen storage backend — or, with -addr, against a live
// mlkv-server over the pipelined wire protocol — printing throughput, the
// stage breakdown, and the convergence curve.
//
// Usage:
//
//	mlkv-train -task dlrm -backend mlkv -staleness 8 -buffer-mb 64 -duration 30s
//	mlkv-train -task dlrm -addr 127.0.0.1:7070 -duration 30s
//
// Remote training goes through the public mlkv API: the trainer connects
// to "mlkv://addr" and opens the named model (-model, default the task
// name) with its dimension — the server creates it on first open. Each
// training step travels as one GETBATCH and one PUTBATCH frame. The
// server owns the model's staleness bound and sizing: for BSP
// over the network, run the server with -staleness 0 and train with
// -mode sync.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/train"
)

func main() {
	var (
		task      = flag.String("task", "dlrm", "task (dlrm|kge|gnn)")
		backendN  = flag.String("backend", "mlkv", "backend (mlkv|faster|mem): faster is the hybrid log with its clock off, mem an in-memory table")
		addr      = flag.String("addr", "", "train against a running mlkv-server at this address (overrides -backend)")
		modelID   = flag.String("model", "", "model name on the server (default: the task name)")
		conns     = flag.Int("conns", 0, "remote connection pool size (default: workers+2)")
		staleness = flag.Int64("staleness", 8, "staleness bound (MLKV only; -1 disables)")
		bufferMB  = flag.Int("buffer-mb", 64, "buffer budget")
		duration  = flag.Duration("duration", 15*time.Second, "training duration")
		maxSamp   = flag.Int64("max-samples", 0, "stop after this many samples (0 = duration only); use it to compare configurations at equal work")
		workers   = flag.Int("workers", 4, "training workers")
		dim       = flag.Int("dim", 16, "embedding dimension")
		keys      = flag.Uint64("keys", 1_000_000, "entity / key-space size")
		lookahead = flag.Int("lookahead", 16, "look-ahead depth in samples (0 disables); dlrm rounds it up to whole minibatches and hints one per step, gnn hints one step ahead at any depth")
		cache     = flag.Int("cache", 0, "staleness-aware hot-tier capacity in entries on the model's read path (0 disables; under SSP a remote tier bounds staleness against this trainer's own writes — use mlkv-server -cache when other clients' writes matter)")
		modeN     = flag.String("mode", "async", "pipeline structure for dlrm (async|sync); sync barriers every minibatch (BSP)")
		dir       = flag.String("dir", "", "data directory (default: temp)")
	)
	flag.Parse()
	mode := train.ModeAsync
	switch *modeN {
	case "async":
	case "sync":
		mode = train.ModeSync
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q (async|sync)\n", *modeN)
		os.Exit(2)
	}
	switch *backendN {
	case "mlkv", "faster", "mem":
	default:
		fmt.Fprintf(os.Stderr, "unknown backend %q (mlkv|faster|mem)\n", *backendN)
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	init := core.UniformInit(0.1, 7)
	if *task == "kge" {
		init = core.UniformInit(0.5, 7)
	}

	var backend train.Backend
	if *addr == "" && *backendN == "mem" {
		backend = train.NewMemBackend("mem", *dim, init)
	} else {
		// One path for both targets: the public API against a local
		// directory, or against mlkv://addr — the same calls plus the wire.
		target := *dir
		var copts []mlkv.ConnectOption
		mopts := []mlkv.Option{mlkv.WithInitializer(init), mlkv.WithCache(*cache)}
		useLookahead := true
		if *addr != "" {
			nc := *conns
			if nc <= 0 {
				// One connection per training worker (a BSP worker's blocked
				// read must not queue behind its unblocker's write on a
				// shared connection) plus slack for the evaluation handle
				// and the remote model's hint-queue worker.
				nc = *workers + 2
			}
			target, copts = mlkv.Scheme+*addr, []mlkv.ConnectOption{mlkv.WithConns(nc)}
		} else {
			if target == "" {
				var err error
				if target, err = os.MkdirTemp("", "mlkv-train-*"); err != nil {
					fail(err)
				}
				defer os.RemoveAll(target)
			}
			// A server owns its models' bound and sizing; a local directory
			// takes them from the flags. Only the mlkv backend runs the
			// staleness clock and looks ahead; faster is the same log
			// with the clock off.
			bound := mlkv.Disabled
			if *backendN == "mlkv" {
				bound = *staleness
			}
			useLookahead = *backendN == "mlkv"
			mopts = append(mopts,
				mlkv.WithStalenessBound(bound),
				mlkv.WithMemory(int64(*bufferMB)<<20),
				mlkv.WithExpectedKeys(*keys))
		}
		db, err := mlkv.Connect(target, copts...)
		if err != nil {
			fail(err)
		}
		defer db.Close()
		model := *modelID
		if model == "" {
			model = *task
		}
		mdl, err := db.Open(model, *dim, mopts...)
		if err != nil {
			fail(err)
		}
		defer mdl.Close()
		backend = train.NewModelBackend(mdl, useLookahead)
	}

	var res *train.Result
	var err error
	eval := *duration / 5
	switch *task {
	case "dlrm":
		gen := data.NewCTRGen(data.CTRConfig{Fields: 8, DenseDim: 4, FieldCard: *keys / 8, Seed: 11})
		model := models.NewDLRM(models.FFNN, 8, *dim, 4, []int{32}, 13)
		res, err = train.TrainCTR(train.CTROptions{
			Gen: gen, Model: model, Backend: backend,
			Workers: *workers, Mode: mode,
			DenseLR: 0.05, EmbLR: 0.05, Duration: *duration, MaxSamples: *maxSamp,
			LookaheadDepth: *lookahead, EvalEvery: eval,
		})
	case "kge":
		gen := data.NewKGGen(data.KGConfig{Entities: *keys, Relations: 16, Clusters: 32, Seed: 17})
		model := models.NewKGE(*dim)
		res, err = train.TrainKGE(train.KGEOptions{
			Gen: gen, Model: model, Backend: backend,
			Workers: *workers, EmbLR: 0.1, Duration: *duration, MaxSamples: *maxSamp,
			LookaheadDepth: *lookahead, EvalEvery: eval,
		})
	case "gnn":
		graph := data.NewGraphGen(data.GraphConfig{Nodes: *keys, Classes: 8, Seed: 19})
		sage := models.NewGraphSage(*dim, 32, 8, 23)
		res, err = train.TrainGNN(train.GNNOptions{
			Graph: graph, Sage: sage, Backend: backend,
			Workers: *workers, DenseLR: 0.05, EmbLR: 0.05, Duration: *duration, MaxSamples: *maxSamp,
			LookaheadDepth: *lookahead, EvalEvery: eval,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown task %q\n", *task)
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
	tot := res.Stage.Total().Seconds()
	if tot == 0 {
		tot = 1
	}
	fmt.Printf("task=%s backend=%s samples=%d throughput=%.0f/s\n", *task, res.Backend, res.Samples, res.Throughput)
	fmt.Printf("latency breakdown: emb=%.1f%% fwd=%.1f%% bwd=%.1f%%\n",
		res.Stage.Emb.Seconds()/tot*100, res.Stage.Forward.Seconds()/tot*100, res.Stage.Backward.Seconds()/tot*100)
	fmt.Printf("final metric: %.4f\n", res.FinalMetric)
	for _, p := range res.Curve {
		fmt.Printf("  t=%6.1fs metric=%.4f\n", p.Seconds, p.Metric)
	}
}
