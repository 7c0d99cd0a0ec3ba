// Package data generates the synthetic workloads standing in for the
// paper's datasets (Table II): Criteo-like click logs for CTR, knowledge
// graphs for link prediction, and power-law community graphs for node
// classification (Figure 11's eBay-like runs use these too). Every
// generator plants a recoverable ground truth so that convergence curves
// (AUC, Hits@k, accuracy vs time) are meaningful, and draws categorical
// popularity from Zipf distributions so that cache behaviour matches the
// skew of the real datasets.
package data

import (
	"github.com/llm-db/mlkv-go/internal/util"
)

// CTRConfig parameterizes a Criteo-like click-log generator.
type CTRConfig struct {
	Fields    int     // categorical fields (Criteo: 26)
	DenseDim  int     // dense features (Criteo: 13)
	FieldCard uint64  // cardinality per categorical field
	Zipf      float64 // popularity skew of feature values (0 disables)
	NoiseStd  float64 // label noise
	// Seed fixes the planted ground-truth model. Generators with the same
	// Seed agree on labels regardless of Stream.
	Seed uint64
	// Stream seeds the sample stream; give each worker its own so they
	// draw different impressions of the same ground truth.
	Stream uint64
}

// CTRSample is one labeled impression.
type CTRSample struct {
	Dense []float32
	Keys  []uint64 // one global embedding key per field
	Label float32
}

// CTRGen streams synthetic impressions. The planted model draws a latent
// weight per (field, value) and per dense feature; the label is Bernoulli
// of the sigmoid of their sum. A learner with per-value embeddings can
// recover it, so AUC climbs above 0.5 and saturates.
type CTRGen struct {
	cfg    CTRConfig
	rng    *util.RNG
	fields []*util.Zipf
}

// NewCTRGen builds a generator.
func NewCTRGen(cfg CTRConfig) *CTRGen {
	if cfg.Fields == 0 {
		cfg.Fields = 8
	}
	if cfg.DenseDim == 0 {
		cfg.DenseDim = 4
	}
	if cfg.FieldCard == 0 {
		cfg.FieldCard = 10000
	}
	if cfg.Zipf == 0 {
		cfg.Zipf = 0.9
	}
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.5
	}
	g := &CTRGen{cfg: cfg, rng: util.NewRNG(cfg.Seed ^ util.Mix64(cfg.Stream) ^ 0xc72)}
	for f := 0; f < cfg.Fields; f++ {
		g.fields = append(g.fields, util.NewZipf(g.rng.Split(), cfg.FieldCard, cfg.Zipf))
	}
	return g
}

// Config returns the generator's effective configuration.
func (g *CTRGen) Config() CTRConfig { return g.cfg }

// Key maps (field, value) to a global embedding key.
func (g *CTRGen) Key(field int, value uint64) uint64 {
	return uint64(field)*g.cfg.FieldCard + value
}

// latentWeight is the planted ground-truth weight of a feature value,
// derived deterministically from the key so the generator is stateless.
func (g *CTRGen) latentWeight(key uint64) float64 {
	u := util.Mix64(key ^ g.cfg.Seed)
	// Roughly N(0, 1) via sum of uniforms.
	a := float64(u&0xffffffff) / (1 << 32)
	b := float64(u>>32) / (1 << 32)
	return (a + b - 1) * 3.46 // var 1/6 each → scale to unit variance
}

// Next draws one sample.
func (g *CTRGen) Next() CTRSample {
	s := CTRSample{
		Dense: make([]float32, g.cfg.DenseDim),
		Keys:  make([]uint64, g.cfg.Fields),
	}
	logit := 0.0
	for f := 0; f < g.cfg.Fields; f++ {
		v := g.fields[f].Next()
		k := g.Key(f, v)
		s.Keys[f] = k
		logit += g.latentWeight(k)
	}
	// Dense features contribute through fixed planted weights.
	for i := range s.Dense {
		x := g.rng.Float32()*2 - 1
		s.Dense[i] = x
		w := g.latentWeight(uint64(i) ^ 0xdede)
		logit += float64(x) * w
	}
	logit = logit/2 + g.rng.NormFloat64()*g.cfg.NoiseStd
	if g.rng.Float64() < util.Sigmoid(logit) {
		s.Label = 1
	}
	return s
}

// Batch draws n samples.
func (g *CTRGen) Batch(n int) []CTRSample {
	out := make([]CTRSample, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
