package train

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
)

// trainerCase is one trainer configuration the run-skeleton tests share:
// it trains over b with the given worker count and look-ahead depth.
// maxSamples 0 means no sample budget (the error tests stop the run).
type trainerCase struct {
	name  string
	dim   int
	scale float32 // initializer range
	train func(b Backend, workers, depth int, maxSamples int64, mode Mode) (*Result, error)
	steps int64 // gather/scatter cycles a one-worker run of pinSamples takes
}

// pinSamples is deliberately no multiple of any case's batch, so every
// pinned run ends on a truncated minibatch.
const pinSamples = 1001

func trainerCases() []trainerCase {
	return []trainerCase{
		{name: "ctr", dim: 8, scale: 0.05, steps: (pinSamples + 15) / 16,
			train: func(b Backend, workers, depth int, maxSamples int64, mode Mode) (*Result, error) {
				return TrainCTR(CTROptions{
					Gen:     data.NewCTRGen(data.CTRConfig{Fields: 4, DenseDim: 2, FieldCard: 500, Seed: 3, NoiseStd: 0.2}),
					Model:   models.NewDLRM(models.FFNN, 4, 8, 2, []int{16}, 5),
					Backend: b, Workers: workers, Batch: 16, Mode: mode,
					DenseLR: 0.05, EmbLR: 0.05,
					MaxSamples: maxSamples, LookaheadDepth: depth, EvalSamples: 300,
				})
			}},
		{name: "kge", dim: 16, scale: 0.5, steps: pinSamples,
			train: func(b Backend, workers, depth int, maxSamples int64, _ Mode) (*Result, error) {
				return TrainKGE(KGEOptions{
					Gen:     data.NewKGGen(data.KGConfig{Entities: 2000, Relations: 4, Clusters: 8, Seed: 23}),
					Model:   models.NewKGE(models.DistMult, 16),
					Backend: b, Workers: workers, Negatives: 4, EmbLR: 0.2,
					MaxSamples: maxSamples, LookaheadDepth: depth,
					EvalTriples: 100, EvalNegs: 20, HitsK: 10,
				})
			}},
		{name: "sage", dim: 8, scale: 0.3, steps: pinSamples,
			train: func(b Backend, workers, depth int, maxSamples int64, _ Mode) (*Result, error) {
				return TrainGNN(GNNOptions{
					Graph: data.NewGraphGen(data.GraphConfig{Nodes: 2000, Classes: 4, Homophily: 0.9, Seed: 31}),
					Kind:  KindGraphSage, Sage: models.NewGraphSage(8, 16, 4, 37),
					Backend: b, Workers: workers, Fanout: 3, Fanout2: 3,
					DenseLR: 0.1, EmbLR: 0.1, Batch: 8,
					MaxSamples: maxSamples, LookaheadDepth: depth, EvalNodes: 100,
				})
			}},
		{name: "gat", dim: 8, scale: 0.3, steps: pinSamples,
			train: func(b Backend, workers, depth int, maxSamples int64, _ Mode) (*Result, error) {
				return TrainGNN(GNNOptions{
					Graph: data.NewGraphGen(data.GraphConfig{Nodes: 1000, Classes: 3, Seed: 41}),
					Kind:  KindGAT, Gat: models.NewGAT(8, 12, 3, 43),
					Backend: b, Workers: workers, Fanout: 2, Fanout2: 2,
					DenseLR: 0.05, EmbLR: 0.05, Batch: 8,
					MaxSamples: maxSamples, LookaheadDepth: depth, EvalNodes: 100,
				})
			}},
	}
}

func (c trainerCase) mem() *MemBackend {
	return NewMemBackend("mem", c.dim, core.UniformInit(c.scale, 1))
}

// storeHash is an FNV-1a over every key the backend holds, ascending, and
// the bits of its embedding.
func storeHash(b *MemBackend) uint64 {
	var keys []uint64
	for i := range b.shards {
		for k := range b.shards[i].m {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	h := fnv.New64a()
	var w [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(w[:], k)
		h.Write(w[:])
		for _, v := range b.shards[b.shardOf(k)].m[k] {
			binary.LittleEndian.PutUint32(w[:4], math.Float32bits(v))
			h.Write(w[:4])
		}
	}
	return h.Sum64()
}

// TestTrainersDeterministic pins what a one-worker run computes: the
// sample count, the final metric and every stored embedding, bit for bit.
// The constants were recorded at the commit before the trainers moved
// onto the shared runner (b31e5fa), where this test was written and run
// first; they are amd64's.
func TestTrainersDeterministic(t *testing.T) {
	want := map[string]struct {
		metric float64
		hash   uint64
	}{
		"ctr/0":  {0.5382239210631584, 0xbb4b0b462041dd7f},
		"ctr/4":  {0.5382239210631584, 0xbb4b0b462041dd7f},
		"kge/0":  {52, 0xa19315ea393de6a4},
		"kge/4":  {40, 0xbf4a42f971d8e2fd},
		"sage/0": {30, 0x75af3cd99dbf9fd2},
		"sage/4": {32, 0x5058332b9424081f},
		"gat/0":  {46, 0xd033688573102625},
		"gat/4":  {42, 0x83daebb8f16ed4ee},
	}
	for _, c := range trainerCases() {
		for _, depth := range []int{0, 4} {
			name := fmt.Sprintf("%s/%d", c.name, depth)
			t.Run(name, func(t *testing.T) {
				b := c.mem()
				res, err := c.train(b, 1, depth, pinSamples, ModeAsync)
				if err != nil {
					t.Fatal(err)
				}
				if res.Samples != pinSamples {
					t.Fatalf("Samples = %d, want %d", res.Samples, pinSamples)
				}
				if runtime.GOARCH != "amd64" {
					return // fused multiply-adds change the low bits elsewhere
				}
				w := want[name]
				if got := storeHash(b); res.FinalMetric != w.metric || got != w.hash {
					t.Fatalf("FinalMetric = %v, store hash = %#x; want %v, %#x",
						res.FinalMetric, got, w.metric, w.hash)
				}
			})
		}
	}
}

// recBackend records the storage calls a run's handles make, in order.
// Peek (evaluation) is not part of a step and is not recorded.
type recBackend struct {
	*MemBackend
	mu    sync.Mutex
	calls []recCall
}

type recCall struct {
	op   byte // 'L'ookahead, 'G'etBatch, 'P'utBatch, '1' for a per-key Get or Put
	keys []uint64
}

func (b *recBackend) NewHandle() (Handle, error) {
	h, err := b.MemBackend.NewHandle()
	return &recHandle{Handle: h, b: b}, err
}

type recHandle struct {
	Handle
	b *recBackend
}

func (h *recHandle) rec(op byte, keys []uint64) {
	h.b.mu.Lock()
	h.b.calls = append(h.b.calls, recCall{op, slices.Clone(keys)})
	h.b.mu.Unlock()
}

func (h *recHandle) Lookahead(keys []uint64) { h.rec('L', keys); h.Handle.Lookahead(keys) }
func (h *recHandle) GetBatch(keys []uint64, dst []float32) error {
	h.rec('G', keys)
	return h.Handle.GetBatch(keys, dst)
}
func (h *recHandle) PutBatch(keys []uint64, vals []float32) error {
	h.rec('P', keys)
	return h.Handle.PutBatch(keys, vals)
}
func (h *recHandle) Get(key uint64, dst []float32) error {
	h.rec('1', nil)
	return h.Handle.Get(key, dst)
}
func (h *recHandle) Put(key uint64, val []float32) error {
	h.rec('1', nil)
	return h.Handle.Put(key, val)
}

// checkStepProtocol asserts the per-step call order a backend sees from
// one worker — look-ahead hints while samples are drawn, then exactly one
// GetBatch of unique ascending keys, then exactly one PutBatch of the
// same keys — and returns the number of steps.
func checkStepProtocol(t *testing.T, calls []recCall) int64 {
	t.Helper()
	var steps int64
	var fetched []uint64 // non-nil between a step's GetBatch and its PutBatch
	for i, c := range calls {
		switch {
		case c.op == 'L' && fetched == nil:
		case c.op == 'G' && fetched == nil:
			if len(c.keys) == 0 {
				t.Fatalf("call %d: empty GetBatch", i)
			}
			for j := 1; j < len(c.keys); j++ {
				if c.keys[j-1] >= c.keys[j] {
					t.Fatalf("call %d: GetBatch keys not unique ascending: %v", i, c.keys)
				}
			}
			fetched = c.keys
			steps++
		case c.op == 'P' && fetched != nil:
			if !slices.Equal(c.keys, fetched) {
				t.Fatalf("call %d: PutBatch keys differ from the step's GetBatch", i)
			}
			fetched = nil
		default:
			t.Fatalf("call %d: %q out of order (inside a step: %v)", i, c.op, fetched != nil)
		}
	}
	if fetched != nil {
		t.Fatal("run ended between a GetBatch and its PutBatch")
	}
	return steps
}

// TestTrainerCallOrder pins the storage-call sequence of every trainer,
// including the final truncated minibatch.
func TestTrainerCallOrder(t *testing.T) {
	for _, c := range trainerCases() {
		for _, depth := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/%d", c.name, depth), func(t *testing.T) {
				b := &recBackend{MemBackend: c.mem()}
				if _, err := c.train(b, 1, depth, pinSamples, ModeAsync); err != nil {
					t.Fatal(err)
				}
				if steps := checkStepProtocol(t, b.calls); steps != c.steps {
					t.Fatalf("%d steps, want %d", steps, c.steps)
				}
				hints := 0
				for _, call := range b.calls {
					if call.op == 'L' {
						hints++
					}
				}
				if (hints > 0) != (depth > 0) {
					t.Fatalf("%d Lookahead calls at depth %d", hints, depth)
				}
			})
		}
	}
}

// TestEmbLatCountsSteps: every trainer reports one embedding-access
// observation per step, and Stage.Emb is their sum.
func TestEmbLatCountsSteps(t *testing.T) {
	for _, c := range trainerCases() {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.train(c.mem(), 1, 0, pinSamples, ModeAsync)
			if err != nil {
				t.Fatal(err)
			}
			if res.EmbLat.Count != c.steps {
				t.Fatalf("EmbLat.Count = %d, want one per step (%d)", res.EmbLat.Count, c.steps)
			}
			if int64(res.Stage.Emb) != res.EmbLat.Sum {
				t.Fatalf("Stage.Emb = %d ns, EmbLat.Sum = %d ns", res.Stage.Emb, res.EmbLat.Sum)
			}
		})
	}
}

var errBoom = errors.New("boom")

// failBackend hands out handles over a MemBackend; the first handle's
// failAt-th GetBatch fails, and NewHandle itself fails once maxHandles
// have been handed out (0 = never).
type failBackend struct {
	*MemBackend
	failAt     int64
	maxHandles int64
	handles    atomic.Int64
}

func (b *failBackend) NewHandle() (Handle, error) {
	n := b.handles.Add(1)
	if b.maxHandles > 0 && n > b.maxHandles {
		return nil, errBoom
	}
	h, err := b.MemBackend.NewHandle()
	if n == 1 && b.failAt > 0 {
		return &failHandle{Handle: h, failAt: b.failAt}, err
	}
	return h, err
}

type failHandle struct {
	Handle
	failAt, gets int64
}

func (h *failHandle) GetBatch(keys []uint64, dst []float32) error {
	if h.gets++; h.gets == h.failAt {
		return errBoom
	}
	return h.Handle.GetBatch(keys, dst)
}

// trainWithin runs fn and fails the test if it has not returned in time:
// a hung run must not take the whole package's timeout with it.
func trainWithin(t *testing.T, d time.Duration, fn func() (*Result, error)) (*Result, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := fn()
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("run still going after %v", d)
		return nil, nil
	}
}

// TestWorkerErrorStopsRun: one worker's storage error ends the run and is
// returned, with nothing else to end it — no Duration, no MaxSamples, and
// for CTR peers parked at the sync barrier.
func TestWorkerErrorStopsRun(t *testing.T) {
	for _, c := range trainerCases() {
		t.Run(c.name, func(t *testing.T) {
			b := &failBackend{MemBackend: c.mem(), failAt: 20}
			_, err := trainWithin(t, 5*time.Second, func() (*Result, error) {
				return c.train(b, 3, 0, 0, ModeSync)
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("err = %v, want the worker's error", err)
			}
		})
	}
}

// TestEvalHandleErrorIsReturned: a run that cannot open its evaluation
// handle fails instead of reporting a zero metric.
func TestEvalHandleErrorIsReturned(t *testing.T) {
	for _, c := range trainerCases() {
		t.Run(c.name, func(t *testing.T) {
			b := &failBackend{MemBackend: c.mem(), maxHandles: 2}
			res, err := trainWithin(t, 30*time.Second, func() (*Result, error) {
				return c.train(b, 2, 0, 200, ModeAsync)
			})
			if !errors.Is(err, errBoom) {
				t.Fatalf("res = %+v, err = %v; want the NewHandle error", res, err)
			}
		})
	}
}
