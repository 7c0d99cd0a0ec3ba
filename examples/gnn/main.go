// GraphSage node classification on a synthetic power-law community graph
// with node embeddings out-of-core in MLKV (the paper's DGL-MLKV scenario,
// and the shape of the eBay risk-detection case studies). The optional
// argument is the storage target — a directory or "mlkv://host:port".
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/train"
)

func main() {
	target := ""
	if len(os.Args) > 1 {
		target = os.Args[1]
	}
	if target == "" {
		dir, err := os.MkdirTemp("", "mlkv-gnn-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		target = dir
	}

	const (
		dim     = 16
		classes = 8
		workers = 4
	)
	db, err := mlkv.Connect(target, mlkv.WithConns(workers+2))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	model, err := db.Open("gnn", dim,
		mlkv.WithStalenessBound(8),
		mlkv.WithMemory(16<<20),
		mlkv.WithExpectedKeys(200_000),
		mlkv.WithInitializer(mlkv.UniformInit(0.3)),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close()

	graph := data.NewGraphGen(data.GraphConfig{
		Nodes: 200_000, Classes: classes, AvgDegree: 12, Homophily: 0.85, Seed: 19,
	})
	sage := models.NewGraphSage(dim, 32, classes, 23)

	fmt.Printf("training GraphSage for 10s on %s...\n", model.EngineName())
	res, err := train.TrainGNN(train.GNNOptions{
		Graph: graph, Sage: sage,
		Backend: train.NewModelBackend(model, true),
		Workers: workers, Fanout: 4, Fanout2: 4,
		DenseLR: 0.05, EmbLR: 0.1,
		Duration:       10 * time.Second,
		LookaheadDepth: 8,
		EvalEvery:      2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d nodes at %.0f nodes/s\n", res.Samples, res.Throughput)
	for _, p := range res.Curve {
		fmt.Printf("  t=%5.1fs accuracy=%.1f%%\n", p.Seconds, p.Metric)
	}
	fmt.Printf("final accuracy: %.1f%% (random = %.1f%%)\n", res.FinalMetric, 100.0/classes)
}
