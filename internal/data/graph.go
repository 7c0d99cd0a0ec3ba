package data

import (
	"github.com/llm-db/mlkv-go/internal/util"
)

// GraphConfig parameterizes a synthetic node-classification graph
// (Papers100M-like, scaled): a planted-partition community graph with
// skewed degrees.
type GraphConfig struct {
	Nodes     uint64
	Classes   int
	AvgDegree int
	Homophily float64 // probability that an edge stays inside the community
	Zipf      float64 // neighbor-popularity skew
	Seed      uint64
}

// GraphGen serves neighbor samples and labels without materializing the
// full edge list: neighborhoods are generated deterministically per node,
// which keeps billion-node configurations addressable (the eBay cases).
type GraphGen struct {
	cfg GraphConfig
	// nbr holds the neighbor-popularity constants, summed once: each
	// neighborhood draws from its own copy with a per-node stream.
	nbr *util.Zipf
}

// NewGraphGen builds a generator.
func NewGraphGen(cfg GraphConfig) *GraphGen {
	if cfg.Nodes == 0 {
		cfg.Nodes = 100000
	}
	if cfg.Classes == 0 {
		cfg.Classes = 8
	}
	if cfg.AvgDegree == 0 {
		cfg.AvgDegree = 12
	}
	if cfg.Homophily == 0 {
		cfg.Homophily = 0.85
	}
	if cfg.Zipf == 0 {
		cfg.Zipf = 0.7
	}
	return &GraphGen{cfg: cfg, nbr: util.NewZipf(nil, cfg.Nodes, cfg.Zipf)}
}

// Config returns the effective configuration.
func (g *GraphGen) Config() GraphConfig { return g.cfg }

// Label returns the planted community of node v.
func (g *GraphGen) Label(v uint64) int {
	return int(util.Mix64(v^g.cfg.Seed) % uint64(g.cfg.Classes))
}

// SampleNeighbors returns n neighbors of v, deterministic in (v, salt).
// With probability Homophily a neighbor shares v's community; otherwise it
// is uniform. Popular nodes (low scrambled rank) appear more often,
// approximating a power-law degree distribution.
func (g *GraphGen) SampleNeighbors(v uint64, n int, salt uint64) []uint64 {
	r := util.NewRNG(util.Mix64(v) ^ g.cfg.Seed ^ salt)
	z := g.nbr.WithRNG(r.Split())
	out := make([]uint64, n)
	myClass := g.Label(v)
	for i := range out {
		inClass := r.Float64() < g.cfg.Homophily
		for {
			// Zipf rank scrambled into node-ID space.
			u := util.HashKey(z.Next()) % g.cfg.Nodes
			if u == v {
				continue
			}
			if inClass && g.Label(u) != myClass {
				continue // this edge is homophilous: resample until in-class
			}
			out[i] = u
			break
		}
	}
	return out
}

// TrainNode draws a node for training (uniform).
func (g *GraphGen) TrainNode(r *util.RNG) uint64 {
	return r.Uint64n(g.cfg.Nodes)
}
