package mlkv_test

import (
	"fmt"
	"testing"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/train"
)

// TestTrainingMatchesMemOracle holds every target to the in-memory trainer:
// a one-worker CTR run at ASP, with look-ahead off and on, must store
// exactly the bits the same run stores in a train.MemBackend — every key of
// the generator's key space present in one is present in the other, bit
// for bit — and end on the same metric. A hint moves records toward memory
// and must never change what they hold.
func TestTrainingMatchesMemOracle(t *testing.T) {
	const (
		dim, fields, card = 8, 4, 500
		samples           = 1001 // no multiple of the batch: the run ends on a short one
	)
	init := mlkv.UniformInit(0.05)
	run := func(t *testing.T, b train.Backend, depth int) *train.Result {
		t.Helper()
		res, err := train.TrainCTR(train.CTROptions{
			Gen:     data.NewCTRGen(data.CTRConfig{Fields: fields, DenseDim: 2, FieldCard: card, Seed: 3, NoiseStd: 0.2}),
			Model:   models.NewDLRM(models.FFNN, fields, dim, 2, []int{16}, 5),
			Backend: b, Workers: 1, Batch: 16, Mode: train.ModeAsync,
			DenseLR: 0.05, EmbLR: 0.05,
			MaxSamples: samples, LookaheadDepth: depth, EvalSamples: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Samples != samples {
			t.Fatalf("Samples = %d, want %d", res.Samples, samples)
		}
		return res
	}
	depths := []int{0, 4}
	oracles := make([]*train.MemBackend, len(depths))
	metrics := make([]float64, len(depths))
	for i, depth := range depths {
		oracles[i] = train.NewMemBackend("mem", dim, init)
		metrics[i] = run(t, oracles[i], depth).FinalMetric
	}
	withTargets(t, func(t *testing.T, db *mlkv.DB) {
		for i, depth := range depths {
			m, err := db.Open(fmt.Sprintf("oracle-%d", depth), dim,
				mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithInitializer(init))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := run(t, train.NewModelBackend(m, true), depth).FinalMetric; got != metrics[i] {
				t.Fatalf("depth %d: FinalMetric %v, the in-memory run's %v", depth, got, metrics[i])
			}
			want, err := oracles[i].NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			wv, gv := make([]float32, dim), make([]float32, dim)
			held := 0
			for k := uint64(0); k < fields*card; k++ {
				wok, err := want.Peek(k, wv)
				if err != nil {
					t.Fatal(err)
				}
				gok, err := s.Peek(k, gv)
				if err != nil {
					t.Fatal(err)
				}
				if wok != gok || wok && !f32sEq(wv, gv) {
					t.Fatalf("depth %d, key %d: held %v %v, the in-memory run held %v %v", depth, k, gok, gv, wok, wv)
				}
				if wok {
					held++
				}
			}
			if held == 0 {
				t.Fatalf("depth %d: the in-memory run holds no key of the generator's space", depth)
			}
		}
	})
}
