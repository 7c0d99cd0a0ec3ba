package train

import (
	"fmt"
	"math"
	"time"

	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

// CTROptions configures DLRM CTR training (the paper's PERSIA workload).
type CTROptions struct {
	Gen        *data.CTRGen
	Model      *models.DLRM
	Backend    Backend
	Workers    int
	Batch      int // samples per worker between dense-weight applies
	Mode       Mode
	DenseLR    float32
	EmbLR      float32
	Duration   time.Duration // wall-clock budget
	MaxSamples int64         // optional hard cap (0 = unlimited)

	// LookaheadDepth is how many samples ahead of training a key is hinted
	// to the backend (0 = off). It is rounded up to whole minibatches: the
	// trainer issues one hint per step, for a minibatch that is read
	// ⌈LookaheadDepth/Batch⌉ steps later.
	LookaheadDepth int

	EvalEvery   time.Duration // 0 disables the convergence curve
	EvalSamples int

	// BatchSyncDelay simulates a distributed data-parallel gradient
	// exchange after every batch (the DDP baseline of Figure 11a).
	BatchSyncDelay time.Duration
}

// TrainCTR runs DLRM training and returns throughput, stage breakdown, and
// the AUC-over-time curve.
func TrainCTR(opts CTROptions) (*Result, error) {
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.Batch == 0 {
		opts.Batch = 32
	}
	if opts.EvalSamples == 0 {
		opts.EvalSamples = 2000
	}
	cfg, m := opts.Gen.Config(), opts.Model
	if cfg.Fields != m.Fields || cfg.DenseDim != m.DenseDim {
		return nil, fmt.Errorf("train: samples have %d fields and %d dense features, the model takes %d and %d",
			cfg.Fields, cfg.DenseDim, m.Fields, m.DenseDim)
	}
	// Fixed evaluation set: same planted ground truth, disjoint stream.
	evalSet := data.NewCTRGen(withStream(cfg, 0xe7a1)).Batch(opts.EvalSamples)
	evalNet := opts.Model.NewWorker()
	return runner{
		backend: opts.Backend, workers: opts.Workers,
		stepSamples: opts.Batch, roundSteps: 1,
		sync: opts.Mode == ModeSync, syncDelay: opts.BatchSyncDelay,
		duration: opts.Duration, maxSamples: opts.MaxSamples, evalEvery: opts.EvalEvery,
		newWorker: func(id int, h Handle) worker { return newCTRWorker(&opts, id, h) },
		eval:      func(h Handle) float64 { return evalCTRAUC(&opts, h, evalNet, evalSet) },
	}.run()
}

// ctrWorker trains one minibatch per step: it draws a minibatch (hinting
// its keys in one call when look-ahead is on — a minibatch that is read
// lead steps later), fetches every unique embedding of the minibatch that
// is due with one batched gather, runs the dense tower once over all of
// its samples, and scatters the accumulated embedding gradients.
type ctrWorker struct {
	opts *CTROptions
	h    Handle
	net  *models.DLRMWorker
	gen  *data.CTRGen

	x       []float32 // Batch tower input rows: a sample's dense features, then its embeddings
	dLogits []float32 // Batch
	g       *gather
	// ring holds lead+1 minibatches: minibatch i sits in slot i mod (lead+1)
	// from the step that draws (and hints) it to the step that trains it,
	// lead steps later.
	ring           []data.CTRSample
	drawn, trained int      // minibatches
	hint           []uint64 // keys of the samples drawn this step
}

func newCTRWorker(opts *CTROptions, id int, h Handle) *ctrWorker {
	dim := opts.Model.Dim
	lead := 0
	if opts.LookaheadDepth > 0 {
		lead = (opts.LookaheadDepth + opts.Batch - 1) / opts.Batch
	}
	return &ctrWorker{
		opts: opts, h: h,
		net:     opts.Model.NewWorker(),
		gen:     data.NewCTRGen(withStream(opts.Gen.Config(), uint64(id)*7919+1)),
		x:       make([]float32, opts.Batch*opts.Model.InputDim()),
		dLogits: make([]float32, opts.Batch),
		g:       newGather(dim),
		ring:    make([]data.CTRSample, (lead+1)*opts.Batch),
	}
}

// next returns the minibatch to train, in the order the generator produced
// it, after drawing as many as keep lead of them ahead: one per step, lead+1
// on the first. With look-ahead on, the keys drawn go out as one hint, so
// every key of a minibatch is hinted lead whole steps before the step that
// reads it — a hint issued inside the reading step has no time to turn into
// a copy.
func (w *ctrWorker) next() []data.CTRSample {
	batch := w.opts.Batch
	slots := len(w.ring) / batch
	slot := func(i int) []data.CTRSample { return w.ring[i%slots*batch:][:batch] }
	hinting := w.opts.LookaheadDepth > 0
	w.hint = w.hint[:0]
	for ; w.drawn < w.trained+slots; w.drawn++ {
		fresh := slot(w.drawn)
		for i := range fresh {
			fresh[i] = w.gen.Next()
			if hinting {
				w.hint = append(w.hint, fresh[i].Keys...)
			}
		}
	}
	if hinting {
		w.h.Lookahead(w.hint)
	}
	w.trained++
	return slot(w.trained - 1)
}

// step draws a full minibatch and trains the first n samples of the one
// that is due (n is short only on the run's last step). The unique keys go
// out in one batched gather, ascending: under small staleness bounds
// clocked reads are blocking token acquisitions, and a global order keeps
// the cross-worker wait graph acyclic. Every fetched key is written back,
// trained on or not: each clocked read owes its write (clock balance).
// The n samples go through the tower as one n-row forward and one n-row
// backward, and their embedding gradients accumulate sample by sample in
// field order — the order the tower's one-row form used — so a step stores
// the same bits either way. The clock is read once per stage boundary.
func (w *ctrWorker) step(n int) (StageTimes, error) {
	g, dim := w.g, w.opts.Model.Dim
	samples := w.next()
	g.reset()
	for _, s := range samples {
		// Fields draw from disjoint key ranges, so duplicates only arise
		// across samples; add dedups them.
		for _, k := range s.Keys {
			g.add(k)
		}
	}
	t0 := time.Now()
	if err := g.fetch(w.h); err != nil {
		return StageTimes{}, err
	}
	t1 := time.Now()
	in, dd := w.opts.Model.InputDim(), w.opts.Model.DenseDim
	x := w.x[:n*in]
	for i, s := range samples[:n] {
		row := x[i*in : (i+1)*in]
		copy(row, s.Dense)
		for f, k := range s.Keys {
			copy(row[dd+f*dim:dd+(f+1)*dim], g.emb(k))
		}
	}
	logits, err := w.net.Forward(x)
	if err != nil {
		return StageTimes{}, err
	}
	t2 := time.Now()
	for i, s := range samples[:n] {
		_, w.dLogits[i] = bceLogit(logits[i], s.Label)
	}
	dEmb := w.net.Backward(w.dLogits[:n])
	e := len(dEmb) / n
	for i, s := range samples[:n] {
		for f, k := range s.Keys {
			g.accumulate(k, dEmb[i*e+f*dim:i*e+(f+1)*dim], 1)
		}
	}
	t3 := time.Now()
	if err := g.scatter(w.h, w.opts.EmbLR); err != nil {
		return StageTimes{}, err
	}
	return StageTimes{Emb: t1.Sub(t0) + time.Since(t3), Forward: t2.Sub(t1), Backward: t3.Sub(t2)}, nil
}

func (w *ctrWorker) apply() { w.net.Apply(w.opts.DenseLR) }

// evalCTRAUC scores the fixed evaluation set with Peek (no clock effects),
// Batch samples per forward — the same n-row forward training runs.
func evalCTRAUC(opts *CTROptions, h Handle, w *models.DLRMWorker, evalSet []data.CTRSample) float64 {
	dim, in, dd := opts.Model.Dim, opts.Model.InputDim(), opts.Model.DenseDim
	x := make([]float32, opts.Batch*in)
	scores := make([]float64, len(evalSet))
	labels := make([]int, len(evalSet))
	for lo := 0; lo < len(evalSet); lo += opts.Batch {
		chunk := evalSet[lo:min(lo+opts.Batch, len(evalSet))]
		for i, s := range chunk {
			row := x[i*in : (i+1)*in]
			copy(row, s.Dense)
			for f, k := range s.Keys {
				peekOrZero(h, k, row[dd+f*dim:dd+(f+1)*dim])
			}
		}
		logits, err := w.Forward(x[:len(chunk)*in])
		if err != nil {
			return 0.5
		}
		for i, s := range chunk {
			scores[lo+i] = float64(tensor.Sigmoid(logits[i]))
			labels[lo+i] = int(s.Label)
		}
	}
	return util.AUC(scores, labels)
}

func bceLogit(logit, label float32) (float32, float32) {
	p := 1 / (1 + float32(math.Exp(float64(-logit))))
	eps := float32(1e-7)
	var loss float32
	if label > 0.5 {
		loss = -float32(math.Log(float64(p + eps)))
	} else {
		loss = -float32(math.Log(float64(1 - p + eps)))
	}
	return loss, p - label
}

func withStream(cfg data.CTRConfig, stream uint64) data.CTRConfig {
	cfg.Stream = stream
	return cfg
}
