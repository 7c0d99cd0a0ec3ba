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

// BipartiteConfig parameterizes an eBay-Trisk-like bipartite risk graph:
// transactions on one side, entities (buyers, instruments) on the other.
type BipartiteConfig struct {
	Transactions uint64
	Entities     uint64
	EntityPerTxn int
	FraudRate    float64
	Zipf         float64
	Seed         uint64
}

// BipartiteGen generates transaction nodes connected to Zipf-popular
// entities; a transaction's fraud label correlates with the planted
// riskiness of the entities it touches, so a GNN over the bipartite graph
// can learn to detect it (the paper's eBay-Trisk case study).
type BipartiteGen struct {
	cfg BipartiteConfig
	rng *util.RNG
	pop *util.Zipf
}

// NewBipartiteGen builds the generator.
func NewBipartiteGen(cfg BipartiteConfig) *BipartiteGen {
	if cfg.Transactions == 0 {
		cfg.Transactions = 1 << 20
	}
	if cfg.Entities == 0 {
		cfg.Entities = 1 << 18
	}
	if cfg.EntityPerTxn == 0 {
		cfg.EntityPerTxn = 4
	}
	if cfg.FraudRate == 0 {
		cfg.FraudRate = 0.1
	}
	if cfg.Zipf == 0 {
		cfg.Zipf = 0.9
	}
	g := &BipartiteGen{cfg: cfg, rng: util.NewRNG(cfg.Seed ^ 0xeBa1)}
	g.pop = util.NewZipf(g.rng.Split(), cfg.Entities, cfg.Zipf)
	return g
}

// Config returns the effective configuration.
func (g *BipartiteGen) Config() BipartiteConfig { return g.cfg }

// EntityNode maps an entity index to its global node ID.
func (g *BipartiteGen) EntityNode(e uint64) uint64 { return g.cfg.Transactions + e }

// riskOf is the planted riskiness of an entity in [0, 1).
func (g *BipartiteGen) riskOf(e uint64) float64 {
	return float64(util.Mix64(e^g.cfg.Seed)&0xffff) / 65536
}

// TxnSample is one transaction with its entity neighborhood and label.
type TxnSample struct {
	Txn      uint64
	Entities []uint64 // global node IDs
	Label    int      // 1 = fraudulent
}

// Next draws one transaction.
func (g *BipartiteGen) Next() TxnSample {
	s := TxnSample{
		Txn:      g.rng.Uint64n(g.cfg.Transactions),
		Entities: make([]uint64, g.cfg.EntityPerTxn),
	}
	risk := 0.0
	for i := range s.Entities {
		e := util.HashKey(g.pop.Next()) % g.cfg.Entities
		s.Entities[i] = g.EntityNode(e)
		risk += g.riskOf(e)
	}
	risk /= float64(g.cfg.EntityPerTxn)
	// The riskiest tail of transactions is labeled fraudulent, with noise.
	threshold := 1 - g.cfg.FraudRate
	score := risk + g.rng.NormFloat64()*0.05
	if score > threshold {
		s.Label = 1
	}
	return s
}
