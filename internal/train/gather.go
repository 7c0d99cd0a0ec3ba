package train

import (
	"slices"

	"github.com/llm-db/mlkv-go/internal/util"
)

// gather owns one worker's gather/scatter state for a training step: the
// deduplicated key set, the fetched embeddings, and the accumulated
// gradients. All three trainers drive it the same way —
//
//	g.reset(); g.add(k)...          // collect the step's keys (dup-safe)
//	g.fetch(h)                      // sort ascending, one GetBatch
//	g.emb(k), g.accumulate(k, ...)  // model compute on unique embeddings
//	g.scatter(h, lr)                // apply grads, one PutBatch
//
// — which gives the storage layer its batch amortization (one framed
// round trip per step on a remote backend, one per-shard fan-out locally)
// while preserving the consistency protocol: the vector clock sees each
// unique key exactly once per step (one clocked read, one write), and
// because the keys are unique and sorted ascending, acquisitions stay in
// a global order and the cross-worker wait graph remains acyclic under
// blocking bounds.
//
// Duplicate keys inside a step alias one embedding slot and their
// gradients sum — minibatch SGD on the step's snapshot.
type gather struct {
	dim int

	keys  []uint64 // unique keys, ascending after fetch
	pos   map[uint64]int
	embs  []float32 // len(keys)×dim fetched values
	grads []float32 // len(keys)×dim accumulated gradients
}

func newGather(dim int) *gather {
	return &gather{dim: dim, pos: make(map[uint64]int)}
}

// reset begins a new step.
func (g *gather) reset() {
	g.keys = g.keys[:0]
	clear(g.pos)
}

// add collects key into the step's unique key set.
func (g *gather) add(key uint64) {
	if _, ok := g.pos[key]; !ok {
		g.pos[key] = -1 // position assigned after the sort in fetch
		g.keys = append(g.keys, key)
	}
}

// fetch sorts the unique keys ascending and reads them all with one
// GetBatch. Gradient accumulators start zeroed.
func (g *gather) fetch(h Handle) error {
	slices.Sort(g.keys)
	for i, k := range g.keys {
		g.pos[k] = i
	}
	n := len(g.keys) * g.dim
	g.embs = util.Grow(g.embs, n)
	g.grads = util.Grow(g.grads, n)
	clear(g.grads)
	return h.GetBatch(g.keys, g.embs)
}

// emb returns the fetched embedding of a key added before fetch. Callers
// must not retain the slice past scatter.
func (g *gather) emb(key uint64) []float32 {
	i := g.pos[key]
	return g.embs[i*g.dim : (i+1)*g.dim]
}

// accumulate adds scale×grad into key's gradient accumulator.
func (g *gather) accumulate(key uint64, grad []float32, scale float32) {
	i := g.pos[key]
	acc := g.grads[i*g.dim : (i+1)*g.dim]
	if scale == 1 {
		for d := range acc {
			acc[d] += grad[d]
		}
		return
	}
	for d := range acc {
		acc[d] += scale * grad[d]
	}
}

// scatter applies emb ← emb − lr·grad to every unique key and writes all
// of them back with one PutBatch. Keys fetched without gradient are
// written too — every clocked read owes exactly one write.
func (g *gather) scatter(h Handle, lr float32) error {
	for i := 0; i < len(g.keys)*g.dim; i++ {
		g.embs[i] -= lr * g.grads[i]
	}
	return h.PutBatch(g.keys, g.embs)
}
