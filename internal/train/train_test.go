package train

import (
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
)

func memBackend(dim int) Backend {
	return NewMemBackend("mem", dim, core.UniformInit(0.05, 1))
}

// mlkvBackend is a fresh local model opened through the public API,
// trained with look-ahead on while the clock runs.
func mlkvBackend(t *testing.T, dim int, bound int64) Backend {
	t.Helper()
	db, err := mlkv.Connect(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := db.Open("train", dim, mlkv.WithStalenessBound(bound),
		mlkv.WithMemory(1<<20), mlkv.WithInitializer(core.UniformInit(0.05, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return NewModelBackend(m, bound >= 0)
}

func TestTrainCTRInMemoryImprovesAUC(t *testing.T) {
	gen := data.NewCTRGen(data.CTRConfig{Fields: 4, DenseDim: 2, FieldCard: 500, Seed: 3, NoiseStd: 0.2})
	model := models.NewDLRM(models.FFNN, 4, 8, 2, []int{16}, 5)
	res, err := TrainCTR(CTROptions{
		Gen: gen, Model: model, Backend: memBackend(8),
		Workers: 2, Batch: 16, Mode: ModeAsync,
		DenseLR: 0.05, EmbLR: 0.05,
		MaxSamples: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 30000 {
		t.Fatalf("trained only %d samples", res.Samples)
	}
	if res.FinalMetric < 0.60 {
		t.Fatalf("AUC after training = %.3f, want > 0.60", res.FinalMetric)
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not measured")
	}
	if res.Stage.Total() == 0 {
		t.Fatal("stage times not measured")
	}
}

func TestTrainCTROnMLKV(t *testing.T) {
	gen := data.NewCTRGen(data.CTRConfig{Fields: 4, DenseDim: 2, FieldCard: 500, Seed: 7, NoiseStd: 0.2})
	model := models.NewDLRM(models.FFNN, 4, 8, 2, []int{16}, 9)
	res, err := TrainCTR(CTROptions{
		Gen: gen, Model: model, Backend: mlkvBackend(t, 8, 8),
		Workers: 2, Batch: 16, Mode: ModeAsync,
		DenseLR: 0.05, EmbLR: 0.05,
		MaxSamples:     10000,
		LookaheadDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "mlkv" {
		t.Fatalf("backend name %q", res.Backend)
	}
	if res.FinalMetric < 0.55 {
		t.Fatalf("AUC = %.3f, want > 0.55", res.FinalMetric)
	}
}

func TestTrainCTRSyncMode(t *testing.T) {
	gen := data.NewCTRGen(data.CTRConfig{Fields: 3, DenseDim: 2, FieldCard: 200, Seed: 11})
	model := models.NewDLRM(models.FFNN, 3, 4, 2, []int{8}, 13)
	res, err := TrainCTR(CTROptions{
		Gen: gen, Model: model, Backend: mlkvBackend(t, 4, 0),
		Workers: 3, Batch: 8, Mode: ModeSync,
		DenseLR: 0.05, EmbLR: 0.05,
		MaxSamples: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 2000 {
		t.Fatalf("sync training stalled at %d samples", res.Samples)
	}
}

func TestTrainCTRCurve(t *testing.T) {
	gen := data.NewCTRGen(data.CTRConfig{Fields: 3, DenseDim: 2, FieldCard: 200, Seed: 17})
	model := models.NewDLRM(models.DCN, 3, 4, 2, []int{8}, 19)
	res, err := TrainCTR(CTROptions{
		Gen: gen, Model: model, Backend: memBackend(4),
		Workers: 2, Batch: 16, Mode: ModeAsync,
		DenseLR: 0.05, EmbLR: 0.05,
		Duration:  900 * time.Millisecond,
		EvalEvery: 200 * time.Millisecond, EvalSamples: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) < 2 {
		t.Fatalf("expected convergence curve points, got %d", len(res.Curve))
	}
}

func TestTrainKGEImprovesHits(t *testing.T) {
	gen := data.NewKGGen(data.KGConfig{Entities: 2000, Relations: 4, Clusters: 8, Seed: 23})
	model := models.NewKGE(16)
	// Multiplicative scorers need a healthy init scale; tiny embeddings
	// produce vanishing three-way-product gradients.
	backend := NewMemBackend("mem", 16, core.UniformInit(0.5, 1))
	res, err := TrainKGE(KGEOptions{
		Gen: gen, Model: model, Backend: backend,
		Workers: 2, Negatives: 8, EmbLR: 0.2,
		MaxSamples:  120000,
		EvalTriples: 200, EvalNegs: 20, HitsK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Random ranking over 21 candidates gives Hits@10 ≈ 48%; trained should
	// be clearly better.
	if res.FinalMetric < 60 {
		t.Fatalf("Hits@10 = %.1f%%, want > 60%%", res.FinalMetric)
	}
}

func TestTrainKGEWithBETAOnMLKV(t *testing.T) {
	gen := data.NewKGGen(data.KGConfig{Entities: 2000, Relations: 4, Clusters: 8, Seed: 29})
	model := models.NewKGE(16)
	res, err := TrainKGE(KGEOptions{
		Gen: gen, Model: model, Backend: mlkvBackend(t, 16, 8),
		Workers: 2, Negatives: 2, EmbLR: 0.1,
		MaxSamples:     4000,
		BETA:           true,
		BETAPartitions: 4, BETABuffer: 2,
		LookaheadDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 4000 {
		t.Fatalf("BETA training stalled at %d", res.Samples)
	}
}

func TestTrainGNNImprovesAccuracy(t *testing.T) {
	graph := data.NewGraphGen(data.GraphConfig{Nodes: 2000, Classes: 4, Homophily: 0.9, Seed: 31})
	sage := models.NewGraphSage(8, 16, 4, 37)
	res, err := TrainGNN(GNNOptions{
		Graph: graph, Sage: sage,
		Backend: NewMemBackend("mem", 8, core.UniformInit(0.3, 1)),
		Workers: 2, Fanout: 3, Fanout2: 3,
		DenseLR: 0.1, EmbLR: 0.1, Batch: 8,
		MaxSamples: 20000, EvalNodes: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMetric < 45 {
		t.Fatalf("accuracy = %.1f%%, want > 45%% (4 classes, random = 25%%)", res.FinalMetric)
	}
}

func TestDDPSimulationSlowsThroughput(t *testing.T) {
	gen := data.NewCTRGen(data.CTRConfig{Fields: 3, DenseDim: 2, FieldCard: 200, Seed: 59})
	mk := func(delay time.Duration) float64 {
		model := models.NewDLRM(models.FFNN, 3, 4, 2, []int{8}, 61)
		res, err := TrainCTR(CTROptions{
			Gen: gen, Model: model, Backend: memBackend(4),
			Workers: 2, Batch: 8, Mode: ModeAsync,
			DenseLR: 0.05, EmbLR: 0.05,
			MaxSamples:     3000,
			BatchSyncDelay: delay,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	fast := mk(0)
	slow := mk(2 * time.Millisecond)
	if slow >= fast {
		t.Fatalf("network-delay simulation had no effect: %v >= %v", slow, fast)
	}
}
