// Remote quickstart: start an in-process mlkv-server hosting named models
// (the machinery cmd/mlkv-server wraps in flags), then connect to it with
// the same public API a local directory target uses — mlkv.Connect on an
// "mlkv://" target. Two models with different dimensions share the one
// server; batches travel as single frames and fan into each model's
// sharded store in parallel.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
)

func main() {
	dir, err := os.MkdirTemp("", "mlkv-remote-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A model registry that lazily opens a 4-shard hybrid-log store per
	// named model under the bound the client's Open carries — exactly what
	// cmd/mlkv-server builds from its flags.
	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: dir, Shards: 4, MemoryBytes: 8 << 20, ExpectedKeys: 10000,
		StalenessBound: mlkv.ASP,
	}})
	defer reg.Close()

	// Serve it on loopback.
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// Connect with the public API — the same call, and everything after
	// it, that a local directory target would use.
	db, err := mlkv.Connect(mlkv.Scheme+ln.Addr().String(), mlkv.WithConns(2))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Two named models, two dimensions, one server.
	ctr, err := db.Open("ctr-model", 8)
	if err != nil {
		log.Fatal(err)
	}
	kge, err := db.Open("kge-model", 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected to %s: %s (dim=%d, %d shards), %s (dim=%d, %d shards)\n",
		db.Target(), ctr.ID(), ctr.Dim(), ctr.Shards(), kge.ID(), kge.Dim(), kge.Shards())

	sess, err := ctr.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// One batched round trip writes 256 embeddings; the server fans the
	// frame across all four shards in parallel.
	const n = 256
	keys := make([]uint64, n)
	vals := make([]float32, n*8)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i*8] = float32(i)
	}
	if err := sess.PutBatch(keys, vals); err != nil {
		log.Fatal(err)
	}
	got := make([]float32, n*8)
	if err := sess.GetBatch(keys, got); err != nil {
		log.Fatal(err)
	}
	if err := sess.PutBatch(keys, got); err != nil { // balance the clock
		log.Fatal(err)
	}
	fmt.Printf("wrote and read back %d embeddings in one frame each (got[255][0]=%.0f)\n", n, got[255*8])

	// Model-level ops travel over the wire too, and the server accounts
	// remote sessions truthfully (this process holds one on ctr-model).
	if err := ctr.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	stats := ctr.Stats()
	fmt.Printf("server counters for %s: gets=%d puts=%d batchGets=%d batchPuts=%d sessions=%d\n",
		ctr.ID(), stats.Gets, stats.Puts, stats.BatchGets, stats.BatchPuts, ctr.ActiveSessions())

	// Graceful drain: in-flight requests finish before connections close.
	sess.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
}
