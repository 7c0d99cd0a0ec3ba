package bench

import (
	"context"
	"net"
	"time"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/train"
)

// TrainBatchSweep measures what the batched gather/scatter path buys DLRM
// training: the same model, workload, and key ordering run once with the
// scalar per-key access path and once with one GetBatch + one PutBatch
// per minibatch — first over an in-process MLKV table, then against a
// mlkv-server over loopback, where every scalar Get/Put is a framed round
// trip and batching collapses a minibatch's ~2×Fields×Batch trips into
// two. Each configuration gets a fresh store so no run warms another.
func (e *Env) TrainBatchSweep() error {
	s := e.Scale
	bufKB := s.BufferKBs[0]
	keys := s.CTRCard * uint64(s.CTRFields)

	e.printf("== Train-batch: scalar vs batched gather/scatter, DLRM ==\n")
	e.printf("fields=%d dim=%d batch=32 workers=%d duration=%v buffer=%dKB\n",
		s.CTRFields, s.Dim, s.Workers, s.Duration, bufKB)
	e.printf("%-16s %12s %10s %14s %9s\n", "config", "samples/s", "emb%", "emb-µs/sample", "speedup")

	type row struct {
		name   string
		scalar bool
		remote bool
	}
	var baseLocal, baseRemote float64
	for _, r := range []row{
		{"local-scalar", true, false},
		{"local-batched", false, false},
		{"loopback-scalar", true, true},
		{"loopback-batched", false, true},
	} {
		res, err := e.runTrainBatchCTR(r.scalar, r.remote, bufKB, keys)
		if err != nil {
			return err
		}
		tot := res.Stage.Total().Seconds()
		if tot == 0 {
			tot = 1
		}
		embPerSample := 0.0
		if res.Samples > 0 {
			embPerSample = res.Stage.Emb.Seconds() / float64(res.Samples) * 1e6
		}
		speedup := 1.0
		switch {
		case r.scalar && !r.remote:
			baseLocal = res.Throughput
		case r.scalar && r.remote:
			baseRemote = res.Throughput
		case !r.scalar && !r.remote:
			speedup = res.Throughput / baseLocal
		default:
			speedup = res.Throughput / baseRemote
		}
		e.printf("%-16s %12.0f %9.1f%% %14.2f %8.2fx\n",
			r.name, res.Throughput, res.Stage.Emb.Seconds()/tot*100, embPerSample, speedup)
	}
	return nil
}

// runTrainBatchCTR runs one DLRM configuration over a fresh sharded MLKV
// store — in-process, or served over loopback and trained through a
// RemoteBackend.
func (e *Env) runTrainBatchCTR(scalar, remote bool, bufKB int, keys uint64) (*train.Result, error) {
	shards := e.Shards
	if shards <= 1 {
		shards = 4
	}
	if !remote {
		tbl, err := core.OpenTable(core.Options{
			Dir: e.dir("trainbatch"), Dim: e.Scale.Dim, StalenessBound: faster.BoundAsync,
			Shards: shards, MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
			ExpectedKeys: keys, Init: e.ctrInit(),
		})
		if err != nil {
			return nil, err
		}
		defer tbl.Close()
		opts := e.ctrOpts(train.NewTableBackend(tbl, false), train.ModeAsync, 0)
		opts.Scalar = scalar
		return train.TrainCTR(opts)
	}

	store, err := kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
		Dir: e.dir("trainbatch-srv"), Shards: shards, ValueSize: e.Scale.Dim * 4,
		MemoryBytes: int64(bufKB) << 10, ExpectedKeys: keys,
		StalenessBound: faster.BoundAsync,
	}, "mlkv")
	if err != nil {
		return nil, err
	}
	defer store.Close()
	reg := server.NewRegistry(server.RegistryConfig{})
	if _, err := reg.Add("trainbatch", e.Scale.Dim, store); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()
	rb, err := train.DialRemote(ln.Addr().String(), "trainbatch", e.Scale.Dim, e.ctrInit(), e.Scale.Workers+2)
	if err != nil {
		return nil, err
	}
	defer rb.Close()
	opts := e.ctrOpts(rb, train.ModeAsync, 0)
	opts.Scalar = scalar
	return train.TrainCTR(opts)
}
