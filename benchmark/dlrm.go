package main

import (
	"slices"
	"sync"
	"time"

	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/train"
)

const (
	dlrmBatch   = 32 // samples per step
	dlrmEvalSet = 2000
)

// dlrmTask is the paper's DLRM CTR task at the workload's scale. The
// dense tower is rebuilt for every set-up, so each set-up does the same
// work; the click log and its planted model come from the seed.
type dlrmTask struct {
	sp    *spec
	seed  uint64
	model *models.DLRM
}

func newDLRMTask(sp *spec, seed uint64) *dlrmTask {
	return &dlrmTask{sp: sp, seed: seed,
		model: models.NewDLRM(models.FFNN, sp.fields, sp.dim, 4, []int{32}, 13)}
}

// train runs TrainCTR over b for a duration (d > 0) or a sample count.
// The sample streams are a function of the seed and the worker index
// alone, so every call replays them from the start.
func (t *dlrmTask) train(b train.Backend, d time.Duration, samples int64, evalSet int) (*train.Result, error) {
	return train.TrainCTR(train.CTROptions{
		Gen:     data.NewCTRGen(data.CTRConfig{Fields: t.sp.fields, FieldCard: t.sp.fieldCard, Seed: t.seed}),
		Model:   t.model,
		Backend: b,
		Workers: t.sp.sessions, Batch: dlrmBatch, Mode: train.ModeAsync,
		DenseLR: 0.05, EmbLR: 0.05,
		Duration: d, MaxSamples: samples,
		LookaheadDepth: t.sp.lookahead,
		EvalSamples:    evalSet,
	})
}

// setupDLRM touches every embedding once (a clocked read initialises it,
// the balancing write stores it), so the table has its full size before
// timing and the timed section is stationary, then trains the warm-up
// samples.
func setupDLRM(task *dlrmTask, t *target) error {
	sp := task.sp
	s, err := t.model.NewSession()
	if err != nil {
		return err
	}
	err = touchAll(apiSession{s}, sp.records, sp.dim)
	s.Close()
	if err != nil {
		return err
	}
	_, err = task.train(train.NewModelBackend(t.model, true), 0, sp.warmSamples, 1)
	return err
}

// timedBackend is the benchmark's side of the trainer↔storage boundary:
// a train.Backend that times every gather (GetBatch) and scatter
// (PutBatch) of the backend it wraps. With rec set it also records spans
// and the first worker's op trace for the rung replays.
type timedBackend struct {
	train.Backend
	start time.Time
	d     time.Duration
	win   time.Duration
	units int64 // keys one full step looks up and updates

	rec *recorder // nil: tracing off

	mu      sync.Mutex
	handles []*timedHandle
}

func (b *timedBackend) NewHandle() (train.Handle, error) {
	h, err := b.Backend.NewHandle()
	if err != nil {
		return nil, err
	}
	th := &timedHandle{Handle: h, b: b, ser: newSeries(b.d, b.win), step: -1}
	b.mu.Lock()
	if b.rec != nil && len(b.handles) == 0 {
		th.trace = &stream{}
	}
	b.handles = append(b.handles, th)
	b.mu.Unlock()
	return th, nil
}

func (b *timedBackend) series() []*series {
	out := make([]*series, len(b.handles))
	for i, h := range b.handles {
		out[i] = h.ser
	}
	return out
}

// timedHandle is one worker's handle. Peek (evaluation) passes through
// untimed.
type timedHandle struct {
	train.Handle
	b   *timedBackend
	ser *series

	// Tracing only.
	trace   *stream       // first worker: the calls it made, for replay
	step    int           // open step span, -1 between steps
	stepNo  int           // steps begun
	lastEnd time.Duration // end of the previous scatter
}

// call times one storage call of a step and records its span.
func (h *timedHandle) call(kind uint8, keys []uint64, units int64, fn func() error) error {
	t0 := time.Since(h.b.start)
	if rec := h.b.rec; rec != nil && h.step < 0 {
		// A step runs from the end of the previous scatter: sample
		// generation and dedup belong to it.
		h.step = rec.add("train", opStep, h.stepNo, -1, h.lastEnd, 0)
		h.stepNo++
	}
	err := fn()
	t1 := time.Since(h.b.start)
	if kind != opLookahead {
		h.ser.add(kind == opGetBatch, t1, t1-t0, units)
	}
	if rec := h.b.rec; rec != nil {
		rec.add("train", kind, h.stepNo-1, h.step, t0, t1)
		if h.trace != nil {
			h.trace.kind = append(h.trace.kind, kind)
			h.trace.batch = append(h.trace.batch, slices.Clone(keys))
		}
		if kind == opPutBatch {
			rec.setEnd(h.step, t1)
			h.step, h.lastEnd = -1, t1
		}
	}
	return err
}

func (h *timedHandle) GetBatch(keys []uint64, dst []float32) error {
	return h.call(opGetBatch, keys, 0, func() error { return h.Handle.GetBatch(keys, dst) })
}

func (h *timedHandle) PutBatch(keys []uint64, vals []float32) error {
	return h.call(opPutBatch, keys, h.b.units, func() error { return h.Handle.PutBatch(keys, vals) })
}

func (h *timedHandle) Lookahead(keys []uint64) {
	if h.b.rec == nil {
		h.Handle.Lookahead(keys)
		return
	}
	h.call(opLookahead, keys, 0, func() error { h.Handle.Lookahead(keys); return nil }) //nolint:errcheck // fn cannot fail
}

// runDLRM trains for d through a timedBackend and returns it with the
// trainer's own result.
func runDLRM(task *dlrmTask, t *target, d, win time.Duration, rec *recorder) (*timedBackend, *train.Result, error) {
	sp := task.sp
	b := &timedBackend{
		Backend: train.NewModelBackend(t.model, true),
		d:       d, win: win, rec: rec,
		units: int64(dlrmBatch * sp.fields * 2),
		start: time.Now(),
	}
	res, err := task.train(b, d, 0, dlrmEvalSet)
	return b, res, err
}
