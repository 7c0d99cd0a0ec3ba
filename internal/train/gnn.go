package train

import (
	"time"

	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/util"
)

// GNNOptions configures GraphSAGE node-classification training (the
// paper's DGL workload).
type GNNOptions struct {
	Graph      *data.GraphGen
	Sage       *models.GraphSage
	Backend    Backend
	Workers    int
	Fanout     int // layer-1 neighbors
	Fanout2    int // layer-2 neighbors per layer-1 node
	DenseLR    float32
	EmbLR      float32
	Batch      int
	Duration   time.Duration
	MaxSamples int64

	// LookaheadDepth > 0 samples each step's neighborhood one step early
	// and hints its whole 2-hop key set before the current step's read
	// (0 = off). A step is one neighborhood, so the lead is one step
	// whatever the value.
	LookaheadDepth int

	EvalEvery time.Duration
	EvalNodes int

	BatchSyncDelay time.Duration // DDP simulation (Figure 11a)
}

// TrainGNN runs node-classification training; the curve metric is accuracy
// in percent.
func TrainGNN(opts GNNOptions) (*Result, error) {
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.Fanout == 0 {
		opts.Fanout = 4
	}
	if opts.Fanout2 == 0 {
		opts.Fanout2 = 4
	}
	if opts.Batch == 0 {
		opts.Batch = 16
	}
	if opts.EvalNodes == 0 {
		opts.EvalNodes = 500
	}
	return runner{
		backend: opts.Backend, workers: opts.Workers,
		stepSamples: 1, roundSteps: opts.Batch,
		syncDelay: opts.BatchSyncDelay,
		duration:  opts.Duration, maxSamples: opts.MaxSamples, evalEvery: opts.EvalEvery,
		newWorker: func(id int, h Handle) worker { return newGNNWorker(&opts, uint64(id), h) },
		eval:      func(h Handle) float64 { return evalGNNAccuracy(&opts, h) },
	}.run()
}

// gnnWorker assembles neighborhoods, runs the model, and scatters
// embedding gradients back to storage through the shared gather: the
// neighborhood's unique nodes are fetched with one batched read and
// written back with one batched write (so every clocked read has exactly
// one matching write, keeping the vector clock balanced).
type gnnWorker struct {
	opts *GNNOptions
	h    Handle
	rng  *util.RNG
	salt uint64
	dim  int

	sage *models.SageWorker

	nodes1 []uint64   // {v} ∪ N1
	nbh    [][]uint64 // N2 per layer-1 node
	// With look-ahead on, the next step's neighborhood: sampled and hinted
	// one step before it is read, then swapped in.
	aheadNodes1 []uint64
	aheadNbh    [][]uint64
	primed      bool // a neighborhood has been drawn ahead
	hint        []uint64

	eSelf [][]float32
	eMean [][]float32
	g     *gather
}

func newGNNWorker(opts *GNNOptions, wID uint64, h Handle) *gnnWorker {
	w := &gnnWorker{
		opts: opts,
		h:    h,
		rng:  util.NewRNG(wID*31 + 7),
		salt: wID,
	}
	n1 := opts.Fanout + 1
	w.nodes1 = make([]uint64, n1)
	w.nbh = make([][]uint64, n1)
	if opts.LookaheadDepth > 0 {
		w.aheadNodes1 = make([]uint64, n1)
		w.aheadNbh = make([][]uint64, n1)
	}
	w.dim = opts.Sage.Dim
	w.sage = opts.Sage.NewWorker(opts.Fanout)
	for i := 0; i < n1; i++ {
		w.eSelf = append(w.eSelf, make([]float32, w.dim))
		w.eMean = append(w.eMean, make([]float32, w.dim))
	}
	w.g = newGather(w.dim)
	return w
}

// sample draws the neighborhood for one training node into nodes1 and nbh.
func (w *gnnWorker) sample(nodes1 []uint64, nbh [][]uint64) {
	g := w.opts.Graph
	v := g.TrainNode(w.rng)
	nodes1[0] = v
	n1 := g.SampleNeighbors(v, w.opts.Fanout, w.salt^w.rng.Uint64())
	copy(nodes1[1:], n1)
	for i, u := range nodes1 {
		nbh[i] = g.SampleNeighbors(u, w.opts.Fanout2, w.salt^w.rng.Uint64())
	}
}

// sampleAhead is sample with a one-step lead: it makes the neighborhood
// drawn on the previous step current, draws the next one and hints its
// whole 2-hop key set. Every draw goes through sample on w.rng, so the
// nodes trained are the ones a run without hints trains.
func (w *gnnWorker) sampleAhead() {
	if !w.primed {
		w.primed = true
		w.sample(w.aheadNodes1, w.aheadNbh)
	}
	w.nodes1, w.aheadNodes1 = w.aheadNodes1, w.nodes1
	w.nbh, w.aheadNbh = w.aheadNbh, w.nbh
	w.sample(w.aheadNodes1, w.aheadNbh) // over the neighborhood trained last step
	w.hint = w.hint[:0]
	for i, u := range w.aheadNodes1 {
		w.hint = append(append(w.hint, u), w.aheadNbh[i]...)
	}
	w.h.Lookahead(w.hint)
}

// fetch loads every unique node embedding once: the gather dedups the
// neighborhood, sorts it ascending (a global acquisition order keeps the
// wait graph acyclic under blocking staleness bounds), and issues one
// batched read.
func (w *gnnWorker) fetch() error {
	w.g.reset()
	for i, u := range w.nodes1 {
		w.g.add(u)
		for _, x := range w.nbh[i] {
			w.g.add(x)
		}
	}
	return w.g.fetch(w.h)
}

// step trains on one sampled neighborhood.
func (w *gnnWorker) step(int) (StageTimes, error) {
	if w.opts.LookaheadDepth > 0 {
		w.sampleAhead()
	} else {
		w.sample(w.nodes1, w.nbh)
	}
	t0 := time.Now()
	if err := w.fetch(); err != nil {
		return StageTimes{}, err
	}
	t1 := time.Now()

	label := w.opts.Graph.Label(w.nodes1[0])
	for i, u := range w.nodes1 {
		copy(w.eSelf[i], w.g.emb(u))
		mean := w.eMean[i]
		clear(mean)
		for _, x := range w.nbh[i] {
			e := w.g.emb(x)
			for d := 0; d < w.dim; d++ {
				mean[d] += e[d] / float32(len(w.nbh[i]))
			}
		}
	}
	// Forward+backward happen inside Step; split timing evenly.
	_, _, dSelf, dMean := w.sage.Step(w.eSelf, w.eMean, label)
	t2 := time.Now()
	for i, u := range w.nodes1 {
		w.g.accumulate(u, dSelf[i], 1)
		for _, x := range w.nbh[i] {
			w.g.accumulate(x, dMean[i], 1/float32(len(w.nbh[i])))
		}
	}

	// Apply and write back each unique node once — including nodes fetched
	// without gradient, which still owe their write (clock balance).
	t3 := time.Now()
	if err := w.g.scatter(w.h, w.opts.EmbLR); err != nil {
		return StageTimes{}, err
	}
	t4 := time.Now()
	half := t2.Sub(t1) / 2
	return StageTimes{
		Emb:     t1.Sub(t0) + t4.Sub(t3),
		Forward: half, Backward: t2.Sub(t1) - half + t3.Sub(t2),
	}, nil
}

func (w *gnnWorker) apply() { w.sage.Apply(w.opts.DenseLR) }

// evalGNNAccuracy scores fresh nodes with Peek.
func evalGNNAccuracy(opts *GNNOptions, h Handle) float64 {
	w := newGNNWorker(opts, 0xe7a1, h)
	tmp := make([]float32, w.dim)
	correct := 0
	for i := 0; i < opts.EvalNodes; i++ {
		w.sample(w.nodes1, w.nbh)
		label := opts.Graph.Label(w.nodes1[0])
		for j, u := range w.nodes1 {
			peekOrZero(h, u, w.eSelf[j])
			clear(w.eMean[j])
			for _, x := range w.nbh[j] {
				peekOrZero(h, x, tmp)
				for d := 0; d < w.dim; d++ {
					w.eMean[j][d] += tmp[d] / float32(len(w.nbh[j]))
				}
			}
		}
		if w.sage.Predict(w.eSelf, w.eMean) == label {
			correct++
		}
	}
	return float64(correct) / float64(opts.EvalNodes) * 100
}
