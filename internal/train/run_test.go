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
					Model:   models.NewKGE(16),
					Backend: b, Workers: workers, Negatives: 4, EmbLR: 0.2,
					MaxSamples: maxSamples, LookaheadDepth: depth,
					EvalTriples: 100, EvalNegs: 20, HitsK: 10,
				})
			}},
		{name: "sage", dim: 8, scale: 0.3, steps: pinSamples,
			train: func(b Backend, workers, depth int, maxSamples int64, _ Mode) (*Result, error) {
				return TrainGNN(GNNOptions{
					Graph:   data.NewGraphGen(data.GraphConfig{Nodes: 2000, Classes: 4, Homophily: 0.9, Seed: 31}),
					Sage:    models.NewGraphSage(8, 16, 4, 37),
					Backend: b, Workers: workers, Fanout: 3, Fanout2: 3,
					DenseLR: 0.1, EmbLR: 0.1, Batch: 8,
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
// first; they are amd64's. A GNN run with hints has none of its own: it
// must compute what the run without them does.
func TestTrainersDeterministic(t *testing.T) {
	want := map[string]struct {
		metric float64
		hash   uint64
	}{
		"ctr/0": {0.5382239210631584, 0xbb4b0b462041dd7f},
		"ctr/4": {0.5382239210631584, 0xbb4b0b462041dd7f},
		// kge/4 differs: negative tails draw from the generator the triples
		// come from, so drawing triples ahead moves every later negative.
		"kge/0":  {52, 0xa19315ea393de6a4},
		"kge/4":  {40, 0xbf4a42f971d8e2fd},
		"sage/0": {30, 0x75af3cd99dbf9fd2},
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
				w, ok := want[name]
				if !ok {
					w = want[c.name+"/0"]
				}
				if got := storeHash(b); res.FinalMetric != w.metric || got != w.hash {
					t.Fatalf("FinalMetric = %v, store hash = %#x; want %v, %#x",
						res.FinalMetric, got, w.metric, w.hash)
				}
			})
		}
	}
}

// TestHintNeverChangesTraining: look-ahead moves records toward memory and
// nothing else — with and without it a run trains the same samples in the
// same order and stores the same bits. KGE is not in the list: its
// negatives share the triples' generator (see TestTrainersDeterministic).
func TestHintNeverChangesTraining(t *testing.T) {
	for _, c := range trainerCases() {
		if c.name == "kge" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			type outcome struct {
				samples int64
				metric  float64
				hash    uint64
			}
			var got [2]outcome
			for i, depth := range []int{0, 4} {
				b := c.mem()
				res, err := c.train(b, 1, depth, pinSamples, ModeAsync)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = outcome{res.Samples, res.FinalMetric, storeHash(b)}
			}
			if got[0] != got[1] {
				t.Fatalf("depth 0: %+v, depth 4: %+v", got[0], got[1])
			}
		})
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
	op   byte // 'L'ookahead, 'G'etBatch, 'P'utBatch
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

// recStep is one step as the backend saw it.
type recStep struct {
	hints [][]uint64 // the Lookahead calls between the previous PutBatch and this GetBatch
	keys  []uint64   // the GetBatch's (and the PutBatch's) keys
}

// checkStepProtocol asserts the per-step call order a backend sees from
// one worker — look-ahead hints before the read, then exactly one GetBatch
// of unique ascending keys, then exactly one PutBatch of the same keys —
// and returns the steps.
func checkStepProtocol(t *testing.T, calls []recCall) []recStep {
	t.Helper()
	var steps []recStep
	var cur recStep
	fetched := false // between a step's GetBatch and its PutBatch
	for i, c := range calls {
		switch {
		case c.op == 'L' && !fetched:
			cur.hints = append(cur.hints, c.keys)
		case c.op == 'G' && !fetched:
			if len(c.keys) == 0 {
				t.Fatalf("call %d: empty GetBatch", i)
			}
			for j := 1; j < len(c.keys); j++ {
				if c.keys[j-1] >= c.keys[j] {
					t.Fatalf("call %d: GetBatch keys not unique ascending: %v", i, c.keys)
				}
			}
			cur.keys, fetched = c.keys, true
		case c.op == 'P' && fetched:
			if !slices.Equal(c.keys, cur.keys) {
				t.Fatalf("call %d: PutBatch keys differ from the step's GetBatch", i)
			}
			steps = append(steps, cur)
			cur, fetched = recStep{}, false
		default:
			t.Fatalf("call %d: %q out of order (inside a step: %v)", i, c.op, fetched)
		}
	}
	if fetched || len(cur.hints) > 0 {
		t.Fatal("run ended inside a step")
	}
	return steps
}

// TestTrainerCallOrder pins the storage-call sequence of every trainer,
// including the final truncated minibatch: with look-ahead on a step is
// exactly Lookahead → GetBatch → PutBatch (KGE's first step hints each of
// the depth+1 triples it draws), without it there is no Lookahead; and a
// GNN hint names every node the next step reads.
func TestTrainerCallOrder(t *testing.T) {
	for _, c := range trainerCases() {
		for _, depth := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/%d", c.name, depth), func(t *testing.T) {
				b := &recBackend{MemBackend: c.mem()}
				if _, err := c.train(b, 1, depth, pinSamples, ModeAsync); err != nil {
					t.Fatal(err)
				}
				steps := checkStepProtocol(t, b.calls)
				if int64(len(steps)) != c.steps {
					t.Fatalf("%d steps, want %d", len(steps), c.steps)
				}
				gnn := c.name == "sage"
				for i, st := range steps {
					want := min(depth, 1)
					if c.name == "kge" && i == 0 && depth > 0 {
						want = depth + 1
					}
					if len(st.hints) != want {
						t.Fatalf("step %d: %d Lookahead calls at depth %d, want %d", i, len(st.hints), depth, want)
					}
					if !gnn || depth == 0 || i == 0 {
						continue
					}
					for _, k := range st.keys {
						if !slices.Contains(steps[i-1].hints[0], k) {
							t.Fatalf("step %d reads node %d, which step %d's hint did not name", i, k, i-1)
						}
					}
				}
			})
		}
	}
}

// TestCTRHintLeadsByWholeSteps: the CTR trainer hints each sample's keys
// exactly once, in the order it trains them, one call per step, and early
// enough — when step s reads, every minibatch through s+⌈depth/Batch⌉ has
// been hinted, so no key is hinted in the step that reads it. The final
// step trains 5 samples and still draws, hints, gathers and scatters 32.
func TestCTRHintLeadsByWholeSteps(t *testing.T) {
	const (
		batch   = 32
		fields  = 4
		samples = 10*batch + 5
		steps   = 11
	)
	cfg := data.CTRConfig{Fields: fields, DenseDim: 2, FieldCard: 500, Seed: 3, NoiseStd: 0.2}
	for _, depth := range []int{1, 16, 32, 33, 64} {
		t.Run(fmt.Sprint(depth), func(t *testing.T) {
			b := &recBackend{MemBackend: NewMemBackend("mem", 8, core.UniformInit(0.05, 1))}
			_, err := TrainCTR(CTROptions{
				Gen:     data.NewCTRGen(cfg),
				Model:   models.NewDLRM(models.FFNN, fields, 8, 2, []int{16}, 5),
				Backend: b, Workers: 1, Batch: batch, Mode: ModeAsync,
				DenseLR: 0.05, EmbLR: 0.05,
				MaxSamples: samples, LookaheadDepth: depth, EvalSamples: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := checkStepProtocol(t, b.calls)
			if len(got) != steps {
				t.Fatalf("%d steps, want %d", len(got), steps)
			}
			lead := (depth + batch - 1) / batch
			// Worker 0's sample stream, as newCTRWorker seeds it.
			gen := data.NewCTRGen(withStream(cfg, 1))
			var stream []uint64
			for i := 0; i < (steps+lead)*batch; i++ {
				stream = append(stream, gen.Next().Keys...)
			}
			var hinted []uint64
			for s, st := range got {
				if len(st.hints) != 1 {
					t.Fatalf("step %d: %d Lookahead calls, want 1", s, len(st.hints))
				}
				hinted = append(hinted, st.hints[0]...)
				if have, want := len(hinted), (s+lead+1)*batch*fields; have != want {
					t.Fatalf("step %d reads with %d keys hinted so far, want %d (every minibatch through %d)",
						s, have, want, s+lead)
				}
				keys := slices.Clone(stream[s*batch*fields : (s+1)*batch*fields])
				slices.Sort(keys)
				if keys = slices.Compact(keys); !slices.Equal(st.keys, keys) {
					t.Fatalf("step %d gathers %v, want minibatch %d of the stream: %v", s, st.keys, s, keys)
				}
			}
			if !slices.Equal(hinted, stream) {
				t.Fatal("the hints are not the sample stream's keys, each once, in order")
			}
		})
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
