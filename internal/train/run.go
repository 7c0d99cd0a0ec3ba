package train

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/latency"
)

// Mode selects the consistency discipline of the training pipeline. The
// storage-level staleness bound lives in the backend; Mode controls the
// pipeline structure (per-batch barriers for sync training).
type Mode int

const (
	// ModeSync barriers all workers after every batch (BSP, Figure 2
	// "Sync"): embedding reads always see the previous batch's updates.
	ModeSync Mode = iota
	// ModeAsync lets workers free-run; consistency comes only from the
	// backend's staleness bound (SSP / ASP).
	ModeAsync
)

// StageTimes decomposes training time into stages (Figure 2 left). A step
// returns its own, measured once per stage over its whole minibatch; the
// runner sums them into Result.Stage.
type StageTimes struct {
	Emb      time.Duration // embedding Get + Put (data stalls land here)
	Forward  time.Duration
	Backward time.Duration
}

// Total returns the sum of stages.
func (s StageTimes) Total() time.Duration { return s.Emb + s.Forward + s.Backward }

// CurvePoint is one quality measurement on the convergence curve.
type CurvePoint struct {
	Seconds float64
	Metric  float64 // AUC, accuracy, or Hits@k depending on task
}

// Result summarizes a training run.
type Result struct {
	Backend     string
	Samples     int64
	Elapsed     time.Duration
	Throughput  float64 // samples/s
	Stage       StageTimes
	Curve       []CurvePoint
	FinalMetric float64
	// EmbLat is the distribution of per-step embedding-access time (one
	// observation per minibatch: batched gather + batched scatter),
	// recorded across every worker. Stage.Emb is its sum; the percentiles
	// expose the tail — a flush or staleness stall shows up in p99 here
	// long before it moves the mean.
	EmbLat latency.Snapshot
}

// worker is one training goroutine's state. A trainer supplies the two
// things that are its own; the loop around them is runner's.
type worker interface {
	// step trains n samples through one gather → compute → scatter cycle
	// on the worker's handle and returns the time each stage took.
	step(n int) (StageTimes, error)
	// apply folds the dense gradients accumulated since the last apply
	// into the shared model.
	apply()
}

// runner is the run skeleton every trainer shares: a handle and a
// goroutine per worker, the sample budget and the deadline, the optional
// per-round barrier and gradient-exchange delay, per-step stage timing,
// the periodic evaluation and the Result.
//
// A run ends when the sample budget is spent, when a worker finishes a
// round past the deadline, or on the first error from any worker, which
// stops everyone and is what run returns.
type runner struct {
	backend     Backend
	workers     int
	stepSamples int  // samples one step trains
	roundSteps  int  // steps between dense applies
	sync        bool // barrier after every round (ModeSync)
	syncDelay   time.Duration
	duration    time.Duration // 0 = no deadline
	maxSamples  int64         // 0 = no budget
	evalEvery   time.Duration // 0 = no curve

	newWorker func(id int, h Handle) worker
	eval      func(h Handle) float64 // clock-free quality measurement
}

func (r runner) run() (*Result, error) {
	res := &Result{Backend: r.backend.Name()}
	start := time.Now()

	// One handle per worker, opened before anything runs, so the first
	// handle a backend hands out is always a training one. The evaluator's
	// joins them only when a curve is drawn; otherwise it opens for the
	// final metric, and training holds no idle session.
	n := r.workers
	if r.evalEvery > 0 {
		n++
	}
	handles := make([]Handle, n)
	for i := range handles {
		h, err := r.backend.NewHandle()
		if err != nil {
			for _, open := range handles[:i] {
				open.Close()
			}
			return nil, err
		}
		handles[i] = h
	}
	stop := make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop) })
	var (
		firstErr           error
		errOnce            sync.Once
		claimed            atomic.Int64 // samples handed to steps
		fwd, bwd           atomic.Int64
		embLat             latency.Histogram
		bar                = barrier{n: r.workers, gen: make(chan struct{})}
		workers, evaluator sync.WaitGroup
	)
	// claim reserves up to stepSamples of what is left of the budget, so
	// Result.Samples is exact however many workers race for the last ones.
	claim := func() int {
		if r.maxSamples == 0 {
			claimed.Add(int64(r.stepSamples))
			return r.stepSamples
		}
		for {
			used := claimed.Load()
			n := min(int64(r.stepSamples), r.maxSamples-used)
			if n <= 0 {
				return 0
			}
			if claimed.CompareAndSwap(used, used+n) {
				return int(n)
			}
		}
	}

	for id, h := range handles[:r.workers] {
		workers.Add(1)
		go func() {
			defer workers.Done()
			defer h.Close()
			w := r.newWorker(id, h)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for s := 0; s < r.roundSteps; s++ {
					n := claim()
					if n == 0 {
						break
					}
					st, err := w.step(n)
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						halt()
						return
					}
					embLat.Record(st.Emb)
					fwd.Add(int64(st.Forward))
					bwd.Add(int64(st.Backward))
				}
				w.apply()
				if r.maxSamples > 0 && claimed.Load() >= r.maxSamples {
					halt()
					return
				}
				if r.syncDelay > 0 {
					time.Sleep(r.syncDelay)
				}
				if r.sync && !bar.wait(stop) {
					return
				}
				if r.duration > 0 && time.Since(start) >= r.duration {
					halt()
					return
				}
			}
		}()
	}

	var evalH Handle
	if r.evalEvery > 0 {
		evalH = handles[r.workers]
		evaluator.Add(1)
		go func() {
			defer evaluator.Done()
			tick := time.NewTicker(r.evalEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					m := r.eval(evalH) // stamped when it is known, not when it began
					res.Curve = append(res.Curve, CurvePoint{Seconds: time.Since(start).Seconds(), Metric: m})
				}
			}
		}()
	}
	workers.Wait()
	halt()
	evaluator.Wait()
	if firstErr == nil && evalH == nil {
		evalH, firstErr = r.backend.NewHandle()
	}
	if evalH != nil {
		defer evalH.Close()
	}
	if firstErr != nil {
		return nil, firstErr
	}

	res.Samples = claimed.Load()
	res.Elapsed = time.Since(start)
	res.Throughput = float64(res.Samples) / res.Elapsed.Seconds()
	res.EmbLat = embLat.Snapshot()
	res.Stage = StageTimes{
		Emb:      time.Duration(res.EmbLat.Sum),
		Forward:  time.Duration(fwd.Load()),
		Backward: time.Duration(bwd.Load()),
	}
	res.FinalMetric = r.eval(evalH)
	return res, nil
}

// barrier is a reusable n-party rendezvous that gives up when stop closes.
type barrier struct {
	mu      sync.Mutex
	n       int
	waiting int
	gen     chan struct{} // closed by the round's last arriver
}

// wait blocks until all n parties have arrived or stop closes; it returns
// false when stopping.
func (b *barrier) wait(stop <-chan struct{}) bool {
	b.mu.Lock()
	gen := b.gen
	if b.waiting++; b.waiting == b.n {
		b.waiting, b.gen = 0, make(chan struct{})
		close(gen)
	}
	b.mu.Unlock()
	select {
	case <-gen:
		return true
	case <-stop:
		return false
	}
}
