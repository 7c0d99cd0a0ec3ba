package train

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/util"
)

// RelationKeyBase offsets relation embeddings away from entity keys within
// the same table (relations are few; entities are billions).
const RelationKeyBase = uint64(1) << 48

// KGEOptions configures knowledge-graph-embedding training (the paper's
// DGL-KE workload).
type KGEOptions struct {
	Gen        *data.KGGen
	Model      *models.KGE
	Backend    Backend
	Workers    int
	Negatives  int
	EmbLR      float32
	Duration   time.Duration
	MaxSamples int64

	LookaheadDepth int

	// BETA enables Marius-style partition-ordered training: entities are
	// range-partitioned, only triples inside the buffered partition pair
	// train, and partition swaps Lookahead the incoming partition
	// (Figure 9b's "BETA" variants).
	BETA           bool
	BETAPartitions int
	BETABuffer     int

	EvalEvery   time.Duration
	EvalTriples int
	EvalNegs    int
	HitsK       int
}

// TrainKGE runs link-prediction training; the curve metric is Hits@K.
func TrainKGE(opts KGEOptions) (*Result, error) {
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.Negatives == 0 {
		opts.Negatives = 4
	}
	if opts.EvalTriples == 0 {
		opts.EvalTriples = 300
	}
	if opts.EvalNegs == 0 {
		opts.EvalNegs = 30
	}
	if opts.HitsK == 0 {
		opts.HitsK = 10
	}
	if opts.BETA {
		if opts.BETAPartitions == 0 {
			opts.BETAPartitions = 8
		}
		if opts.BETABuffer == 0 {
			opts.BETABuffer = opts.BETAPartitions / 2
		}
	}
	evalCfg := opts.Gen.Config()
	evalCfg.Stream = 31337
	evalGen := data.NewKGGen(evalCfg)
	evalSet := evalGen.Batch(opts.EvalTriples)

	// BETA partition schedule, shared across workers.
	var sched *betaSchedule
	if opts.BETA {
		sched = newBetaSchedule(opts.Gen.Config().Entities, opts.BETAPartitions, opts.BETABuffer)
	}
	return runner{
		backend: opts.Backend, workers: opts.Workers,
		stepSamples: 1, roundSteps: 1,
		duration: opts.Duration, maxSamples: opts.MaxSamples, evalEvery: opts.EvalEvery,
		newWorker: func(id int, h Handle) worker { return newKGEWorker(&opts, id, h, sched) },
		eval:      func(h Handle) float64 { return evalHits(&opts, h, evalGen, evalSet) },
	}.run()
}

// kgeWorker trains one triple and its negatives per step.
type kgeWorker struct {
	opts  *KGEOptions
	h     Handle
	gen   *data.KGGen
	rng   *util.RNG
	sched *betaSchedule // nil without BETA

	dh, dr, dt []float32
	dNeg       [][]float32
	negEmb     [][]float32
	negKeys    []uint64
	g          *gather
	// pending is a ring of LookaheadDepth+1 triples: triple i sits in slot
	// i mod len from the step that draws (and hints) it to the step that
	// trains it.
	pending        []data.Triple
	drawn, trained int
	hint           [2]uint64 // one triple's entities (Lookahead copies what it keeps)
}

func newKGEWorker(opts *KGEOptions, id int, h Handle, sched *betaSchedule) *kgeWorker {
	cfg := opts.Gen.Config()
	cfg.Stream = uint64(id)*6151 + 1
	dim := opts.Model.Dim
	w := &kgeWorker{
		opts: opts, h: h, sched: sched,
		gen: data.NewKGGen(cfg), rng: util.NewRNG(uint64(id) + 17),
		dh: make([]float32, dim), dr: make([]float32, dim), dt: make([]float32, dim),
		dNeg:    make([][]float32, opts.Negatives),
		negEmb:  make([][]float32, opts.Negatives),
		negKeys: make([]uint64, opts.Negatives),
		g:       newGather(dim),
	}
	if opts.LookaheadDepth > 0 {
		w.pending = make([]data.Triple, opts.LookaheadDepth+1)
	}
	for i := range w.dNeg {
		w.dNeg[i] = make([]float32, dim)
	}
	return w
}

// draw returns the next triple the partition schedule admits.
func (w *kgeWorker) draw() data.Triple {
	for {
		if tr := w.gen.Next(); w.sched == nil || w.sched.admits(tr) {
			return tr
		}
	}
}

// next returns the next training triple, keeping LookaheadDepth triples
// drawn ahead of it with their entities hinted to the backend.
func (w *kgeWorker) next() data.Triple {
	if w.opts.LookaheadDepth <= 0 {
		return w.draw()
	}
	for ; w.drawn < w.trained+len(w.pending); w.drawn++ {
		tr := w.draw()
		w.hint = [2]uint64{tr.H, tr.T}
		w.h.Lookahead(w.hint[:])
		w.pending[w.drawn%len(w.pending)] = tr
	}
	tr := w.pending[w.trained%len(w.pending)]
	w.trained++
	return tr
}

// step trains one triple plus its negatives: the gather dedups the key
// set, fetches it with one batched read in ascending order (keeping
// cross-worker token acquisitions in a global order under blocking
// bounds), and the scatter writes each unique key back exactly once — so
// gradients of duplicated keys compose and the vector clock stays
// balanced.
func (w *kgeWorker) step(int) (StageTimes, error) {
	g := w.g
	tr := w.next()
	for i := range w.negKeys {
		w.negKeys[i] = w.gen.NegativeTail(tr)
	}
	rKey := RelationKeyBase + uint64(tr.R)
	g.reset()
	g.add(tr.H)
	g.add(rKey)
	g.add(tr.T)
	for _, k := range w.negKeys {
		g.add(k)
	}
	t0 := time.Now()
	if err := g.fetch(w.h); err != nil {
		return StageTimes{}, err
	}
	hEmb, rEmb, tEmb := g.emb(tr.H), g.emb(rKey), g.emb(tr.T)
	for i, nk := range w.negKeys {
		w.negEmb[i] = g.emb(nk)
	}
	t1 := time.Now()
	clear(w.dh)
	clear(w.dr)
	clear(w.dt)
	for i := range w.dNeg {
		clear(w.dNeg[i])
	}
	w.opts.Model.TripleLoss(hEmb, rEmb, tEmb, w.negEmb, w.dh, w.dr, w.dt, w.dNeg)
	t2 := time.Now()
	g.accumulate(tr.H, w.dh, 1)
	g.accumulate(rKey, w.dr, 1)
	g.accumulate(tr.T, w.dt, 1)
	for i, nk := range w.negKeys {
		g.accumulate(nk, w.dNeg[i], 1)
	}
	if err := g.scatter(w.h, w.opts.EmbLR); err != nil {
		return StageTimes{}, err
	}
	t3 := time.Now()
	if w.sched != nil {
		// Periodically advance the partition schedule; the incoming
		// partition is prefetched via Lookahead.
		n := w.sched.trained.Add(1)
		if w.rng.Uint64n(64) == 0 {
			if in := w.sched.maybeAdvance(n); in != nil {
				w.h.Lookahead(in)
			}
		}
	}
	// Forward and backward happen inside TripleLoss; split evenly.
	half := t2.Sub(t1) / 2
	return StageTimes{Emb: t1.Sub(t0) + t3.Sub(t2), Forward: half, Backward: t2.Sub(t1) - half}, nil
}

func (*kgeWorker) apply() {} // no dense parameters

// evalHits computes Hits@K over the fixed evaluation triples using Peek.
func evalHits(opts *KGEOptions, h Handle, gen *data.KGGen, evalSet []data.Triple) float64 {
	dim := opts.Model.Dim
	hEmb := make([]float32, dim)
	rEmb := make([]float32, dim)
	tEmb := make([]float32, dim)
	negs := make([][]float32, opts.EvalNegs)
	for i := range negs {
		negs[i] = make([]float32, dim)
	}
	hits := 0
	for _, tr := range evalSet {
		peekOrZero(h, tr.H, hEmb)
		peekOrZero(h, RelationKeyBase+uint64(tr.R), rEmb)
		peekOrZero(h, tr.T, tEmb)
		for i := range negs {
			peekOrZero(h, gen.NegativeTail(tr), negs[i])
		}
		hits += opts.Model.HitsAtK(hEmb, rEmb, tEmb, negs, opts.HitsK)
	}
	return float64(hits) / float64(len(evalSet)) * 100
}

// betaSchedule rotates a buffer of entity partitions in the spirit of
// Marius' BETA (buffer-aware edge traversal) ordering: training admits only
// triples whose endpoints fall in buffered partitions, maximizing reuse of
// in-memory embeddings between swaps.
type betaSchedule struct {
	trained    atomic.Int64 // triples trained by all workers
	mu         sync.Mutex
	entities   uint64
	partitions int
	buffer     []int
	nextPart   int
	lastSwap   int64
}

func newBetaSchedule(entities uint64, partitions, buffer int) *betaSchedule {
	s := &betaSchedule{entities: entities, partitions: partitions}
	for i := 0; i < buffer; i++ {
		s.buffer = append(s.buffer, i)
	}
	s.nextPart = buffer % partitions
	return s
}

func (s *betaSchedule) partOf(e uint64) int {
	return int(e * uint64(s.partitions) / s.entities)
}

// admits reports whether both endpoints are buffered.
func (s *betaSchedule) admits(tr data.Triple) bool {
	ph, pt := s.partOf(tr.H), s.partOf(tr.T)
	s.mu.Lock()
	defer s.mu.Unlock()
	okH, okT := false, false
	for _, p := range s.buffer {
		if p == ph {
			okH = true
		}
		if p == pt {
			okT = true
		}
	}
	return okH && okT
}

// maybeAdvance swaps the oldest buffered partition for the next one every
// swapInterval samples and returns the keys of the incoming partition for
// prefetching (capped to avoid flooding the queue).
func (s *betaSchedule) maybeAdvance(samples int64) []uint64 {
	const swapInterval = 2000
	s.mu.Lock()
	defer s.mu.Unlock()
	if samples-s.lastSwap < swapInterval {
		return nil
	}
	s.lastSwap = samples
	incoming := s.nextPart
	s.nextPart = (s.nextPart + 1) % s.partitions
	copy(s.buffer, s.buffer[1:])
	s.buffer[len(s.buffer)-1] = incoming
	lo := uint64(incoming) * s.entities / uint64(s.partitions)
	hi := uint64(incoming+1) * s.entities / uint64(s.partitions)
	if hi-lo > 4096 {
		hi = lo + 4096
	}
	keys := make([]uint64, 0, hi-lo)
	for e := lo; e < hi; e++ {
		keys = append(keys, e)
	}
	return keys
}
