// Knowledge-graph-embedding link prediction (DistMult) with Marius-style
// BETA partition ordering over MLKV (the paper's DGL-KE-MLKV scenario,
// Figure 9b). The optional argument is the storage target — a directory
// or "mlkv://host:port".
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
		dir, err := os.MkdirTemp("", "mlkv-kge-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		target = dir
	}

	const (
		dim     = 16
		workers = 4
	)
	db, err := mlkv.Connect(target, mlkv.WithConns(workers+2))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	model, err := db.Open("kge", dim,
		mlkv.WithStalenessBound(8),
		mlkv.WithMemory(16<<20),
		mlkv.WithExpectedKeys(500_000),
		mlkv.WithInitializer(mlkv.UniformInit(0.5)), // multiplicative scorers need scale
	)
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close()

	gen := data.NewKGGen(data.KGConfig{
		Entities: 500_000, Relations: 16, Clusters: 32, Seed: 17,
	})
	distmult := models.NewKGE(dim)

	fmt.Printf("training DistMult for 10s with BETA partition ordering on %s...\n", model.EngineName())
	res, err := train.TrainKGE(train.KGEOptions{
		Gen: gen, Model: distmult,
		Backend: train.NewModelBackend(model, true),
		Workers: workers, Negatives: 4, EmbLR: 0.1,
		Duration:       10 * time.Second,
		BETA:           true,
		BETAPartitions: 8, BETABuffer: 4,
		LookaheadDepth: 8,
		EvalEvery:      2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d triples at %.0f triples/s\n", res.Samples, res.Throughput)
	for _, p := range res.Curve {
		fmt.Printf("  t=%5.1fs Hits@10=%.1f%%\n", p.Seconds, p.Metric)
	}
	fmt.Printf("final Hits@10: %.1f%%\n", res.FinalMetric)
}
