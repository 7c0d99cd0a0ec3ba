package train

import (
	"math"
	"time"

	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
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

	LookaheadDepth int // samples generated ahead and prefetched (0 = off)

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
	// Fixed evaluation set: same planted ground truth, disjoint stream.
	evalSet := data.NewCTRGen(withStream(opts.Gen.Config(), 0xe7a1)).Batch(opts.EvalSamples)
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

// ctrWorker trains one minibatch per step: it draws the samples (hinting
// their keys ahead when look-ahead is on), fetches every unique embedding
// with one batched gather, runs the dense tower sample by sample, and
// scatters the accumulated embedding gradients.
type ctrWorker struct {
	opts *CTROptions
	h    Handle
	net  *models.DLRMWorker
	gen  *data.CTRGen

	embs    []float32 // one sample's Fields×dim input
	g       *gather
	samples []data.CTRSample
	pending []data.CTRSample // drawn and hinted, not yet trained
}

func newCTRWorker(opts *CTROptions, id int, h Handle) *ctrWorker {
	dim := opts.Model.Dim
	return &ctrWorker{
		opts: opts, h: h,
		net:     opts.Model.NewWorker(),
		gen:     data.NewCTRGen(withStream(opts.Gen.Config(), uint64(id)*7919+1)),
		embs:    make([]float32, opts.Model.Fields*dim),
		g:       newGather(dim),
		samples: make([]data.CTRSample, 0, opts.Batch),
	}
}

// next returns the next training sample, keeping LookaheadDepth samples
// drawn ahead of it with their keys hinted to the backend.
func (w *ctrWorker) next() data.CTRSample {
	if w.opts.LookaheadDepth <= 0 {
		return w.gen.Next()
	}
	for len(w.pending) <= w.opts.LookaheadDepth {
		s := w.gen.Next()
		w.h.Lookahead(s.Keys)
		w.pending = append(w.pending, s)
	}
	s := w.pending[0]
	w.pending = w.pending[1:]
	return s
}

// step draws a full minibatch and trains its first n samples (n is short
// only on the run's last step). The unique keys go out in one batched
// gather, ascending: under small staleness bounds clocked reads are
// blocking token acquisitions, and a global order keeps the cross-worker
// wait graph acyclic. Every fetched key is written back, trained on or
// not: each clocked read owes its write (clock balance).
func (w *ctrWorker) step(n int) (StageTimes, error) {
	g, dim := w.g, w.opts.Model.Dim
	w.samples = w.samples[:0]
	g.reset()
	for b := 0; b < w.opts.Batch; b++ {
		s := w.next()
		w.samples = append(w.samples, s)
		// Fields draw from disjoint key ranges, so duplicates only arise
		// across samples; add dedups them.
		for _, k := range s.Keys {
			g.add(k)
		}
	}
	var st StageTimes
	t0 := time.Now()
	if err := g.fetch(w.h); err != nil {
		return st, err
	}
	st.Emb = time.Since(t0)
	for _, s := range w.samples[:n] {
		for f, k := range s.Keys {
			copy(w.embs[f*dim:(f+1)*dim], g.emb(k))
		}
		tf := time.Now()
		logit, err := w.net.Forward(s.Dense, w.embs)
		if err != nil {
			return st, err
		}
		tb := time.Now()
		_, dLogit := bceLogit(logit, s.Label)
		dEmb := w.net.Backward(dLogit)
		for f, k := range s.Keys {
			g.accumulate(k, dEmb[f*dim:(f+1)*dim], 1)
		}
		st.Forward += tb.Sub(tf)
		st.Backward += time.Since(tb)
	}
	t2 := time.Now()
	if err := g.scatter(w.h, w.opts.EmbLR); err != nil {
		return st, err
	}
	st.Emb += time.Since(t2)
	return st, nil
}

func (w *ctrWorker) apply() { w.net.Apply(w.opts.DenseLR) }

// evalCTRAUC scores the fixed evaluation set with Peek (no clock effects).
func evalCTRAUC(opts *CTROptions, h Handle, w *models.DLRMWorker, evalSet []data.CTRSample) float64 {
	dim := opts.Model.Dim
	embs := make([]float32, opts.Model.Fields*dim)
	scores := make([]float64, len(evalSet))
	labels := make([]int, len(evalSet))
	for i, s := range evalSet {
		for f, k := range s.Keys {
			peekOrZero(h, k, embs[f*dim:(f+1)*dim])
		}
		p, err := w.Predict(s.Dense, embs)
		if err != nil {
			return 0.5
		}
		scores[i] = float64(p)
		labels[i] = int(s.Label)
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
