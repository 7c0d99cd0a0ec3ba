// DLRM click-through-rate training on a synthetic Criteo-like click log,
// with embeddings out-of-core in MLKV (the paper's PERSIA-MLKV scenario).
// The optional argument is the storage target — a directory or
// "mlkv://host:port" — so the same program trains against local disk or a
// shared embedding server.
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
		dir, err := os.MkdirTemp("", "mlkv-dlrm-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		target = dir
	}

	const (
		fields  = 8
		dim     = 16
		workers = 4
	)
	db, err := mlkv.Connect(target, mlkv.WithConns(workers+2))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A 16 MiB buffer over an 800k-key table: larger-than-memory training.
	model, err := db.Open("dlrm", dim,
		mlkv.WithStalenessBound(8), // SSP
		mlkv.WithMemory(16<<20),
		mlkv.WithExpectedKeys(800_000),
		mlkv.WithInitializer(mlkv.UniformInit(0.1)),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close()

	gen := data.NewCTRGen(data.CTRConfig{
		Fields: fields, DenseDim: 4, FieldCard: 100_000, Zipf: 0.9, Seed: 11,
	})
	dcn := models.NewDLRM(models.DCN, fields, dim, 4, []int{32}, 13)

	fmt.Printf("training DCN for 10s with look-ahead prefetching on %s...\n", model.EngineName())
	res, err := train.TrainCTR(train.CTROptions{
		Gen: gen, Model: dcn,
		Backend: train.NewModelBackend(model, true),
		Workers: workers, Mode: train.ModeAsync,
		DenseLR: 0.05, EmbLR: 0.05,
		Duration:       10 * time.Second,
		LookaheadDepth: 16,
		EvalEvery:      2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d samples at %.0f samples/s\n", res.Samples, res.Throughput)
	for _, p := range res.Curve {
		fmt.Printf("  t=%5.1fs AUC=%.4f\n", p.Seconds, p.Metric)
	}
	fmt.Printf("final AUC: %.4f\n", res.FinalMetric)
	st := model.Stats()
	fmt.Printf("lookahead: %d embeddings copied to the memory buffer, %d hinted keys dropped\n",
		st.PrefetchCopies, st.PrefetchDropped)
}
