package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/train"
)

// Scale sizes every experiment. Tests use Tiny; the CLI defaults to Small;
// Paper raises entity counts toward the datasets of Table II.
type Scale struct {
	Name        string
	Dim         int
	CTRFields   int
	CTRCard     uint64
	KGEntities  uint64
	GraphNodes  uint64
	Workers     int
	Duration    time.Duration // per training run
	MaxSamples  int64         // cap per run (0 = duration only)
	BufferKBs   []int         // buffer-size sweep points
	YCSBRecords uint64
	YCSBOps     int64
	ValueSizes  []int
	Threads     []int
}

// Tiny is the test scale (sub-second runs).
//
// A local model opens 1 024-record pages: at Dim 8 a page is 56 KiB and a
// store's 4-page floor 224 KiB, so the smaller buffer (4 pages) holds about
// half of each training key space (8 000 keys, ~440 KiB) and the larger
// (18 pages) all of it, and the 16 000 read-sweep records (~875 KiB at Dim
// 8; ~625 KiB as 16-byte YCSB rows) spill at the smaller one.
var Tiny = Scale{
	Name: "tiny", Dim: 8, CTRFields: 4, CTRCard: 2000,
	KGEntities: 8000, GraphNodes: 8000, Workers: 2,
	Duration: 400 * time.Millisecond, MaxSamples: 4000,
	BufferKBs:   []int{256, 1024},
	YCSBRecords: 16000, YCSBOps: 20000,
	ValueSizes: []int{16, 64},
	Threads:    []int{1, 4},
}

// Small is the CLI default (minutes on a laptop).
var Small = Scale{
	Name: "small", Dim: 16, CTRFields: 8, CTRCard: 200000,
	KGEntities: 500000, GraphNodes: 200000, Workers: 4,
	Duration:    5 * time.Second,
	BufferKBs:   []int{1024, 4096, 16384, 65536},
	YCSBRecords: 1 << 20, YCSBOps: 2 << 20,
	ValueSizes: []int{16, 32, 64, 128, 256},
	Threads:    []int{2, 4, 8, 16, 32},
}

// Paper approaches the magnitude of Table II (hours; needs disk and RAM).
var Paper = Scale{
	Name: "paper", Dim: 16, CTRFields: 26, CTRCard: 30_000_000,
	KGEntities: 80_000_000, GraphNodes: 100_000_000, Workers: 8,
	Duration:    10 * time.Minute,
	BufferKBs:   []int{4 << 20, 8 << 20, 16 << 20, 36 << 20},
	YCSBRecords: 1 << 27, YCSBOps: 1 << 27,
	ValueSizes: []int{16, 32, 64, 128, 256},
	Threads:    []int{2, 4, 8, 16, 32},
}

// ScaleByName resolves a scale flag value.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (tiny|small|paper)", name)
}

// Env carries run-wide context.
type Env struct {
	Scale   Scale
	WorkDir string
	Out     io.Writer
	// Shards hash-partitions every model the training figures open (0 or
	// 1 = unsharded). The "shards" experiment sweeps shard counts itself
	// and ignores this.
	Shards int
	// JSONDir, when set, makes Run write each experiment's recorded
	// measurements to BENCH_<experiment>.json under it (the repo's tracked
	// perf trajectory).
	JSONDir string
	n       int
	results []Result
}

// NewEnv builds an Env writing results to out and data under workDir.
func NewEnv(scale Scale, workDir string, out io.Writer) *Env {
	return &Env{Scale: scale, WorkDir: workDir, Out: out}
}

func (e *Env) dir(tag string) string {
	e.n++
	d := filepath.Join(e.WorkDir, fmt.Sprintf("%s-%d", tag, e.n))
	os.MkdirAll(d, 0o755)
	return d
}

func (e *Env) printf(format string, args ...any) {
	fmt.Fprintf(e.Out, format, args...)
}

// openLocal opens model tag on a fresh local directory through the public
// API; closeDB closes the model with its DB.
func (e *Env) openLocal(tag string, dim int, opts ...mlkv.Option) (m *mlkv.Model, closeDB func(), err error) {
	db, err := mlkv.Connect(e.dir(tag))
	if err != nil {
		return nil, nil, err
	}
	if m, err = db.Open(tag, dim, opts...); err != nil {
		db.Close()
		return nil, nil, err
	}
	return m, func() { db.Close() }, nil
}

// trainModel runs fn on a fresh local model — bound's clock, bufKB
// kilobytes of memory, an index sized for keys, e.Shards partitions, init
// for first touch — and closes it. Hints flow to the model whenever the
// trainer's LookaheadDepth asks for them.
func (e *Env) trainModel(tag string, bound int64, bufKB int, keys uint64, init mlkv.Initializer, fn func(train.Backend) (*train.Result, error)) (*train.Result, error) {
	m, closeDB, err := e.openLocal(tag, e.Scale.Dim, mlkv.WithStalenessBound(bound),
		mlkv.WithMemory(int64(bufKB)<<10), mlkv.WithExpectedKeys(keys),
		mlkv.WithShards(e.Shards), mlkv.WithInitializer(init))
	if err != nil {
		return nil, err
	}
	defer closeDB()
	return fn(train.NewModelBackend(m, true))
}

// A task is one training workload of the figures: its key space, its
// first-touch initializer, and its trainer at a look-ahead depth with a
// convergence point every evalEvery (0: none).
type task struct {
	name, metric string
	keys         uint64
	init         mlkv.Initializer
	run          func(b train.Backend, la int, evalEvery time.Duration) (*train.Result, error)
}

// tasks returns the three workloads: asynchronous DLRM, KGE in the
// standard order, and GraphSage.
func (e *Env) tasks() []task {
	s := e.Scale
	return []task{
		{"dlrm", "AUC", s.CTRCard * uint64(s.CTRFields), e.ctrInit(),
			func(b train.Backend, la int, every time.Duration) (*train.Result, error) {
				o := e.ctrOpts(b, train.ModeAsync, la)
				o.EvalEvery = every
				return train.TrainCTR(o)
			}},
		{"kge", "Hits@10", s.KGEntities, e.kgeInit(),
			func(b train.Backend, la int, every time.Duration) (*train.Result, error) {
				o := e.kgeOpts(b, la, false)
				o.EvalEvery = every
				return train.TrainKGE(o)
			}},
		{"gnn", "Acc%", s.GraphNodes, e.ctrInit(),
			func(b train.Backend, la int, every time.Duration) (*train.Result, error) {
				o := e.gnnOpts(b, la)
				o.EvalEvery = every
				return train.TrainGNN(o)
			}},
	}
}

// ctrOpts builds standard CTR training options on a backend.
func (e *Env) ctrOpts(b train.Backend, mode train.Mode, lookahead int) train.CTROptions {
	s := e.Scale
	gen := data.NewCTRGen(data.CTRConfig{
		Fields: s.CTRFields, DenseDim: 4, FieldCard: s.CTRCard, Seed: 11,
	})
	model := models.NewDLRM(models.FFNN, s.CTRFields, s.Dim, 4, []int{32}, 13)
	return train.CTROptions{
		Gen: gen, Model: model, Backend: b,
		Workers: s.Workers, Batch: 32, Mode: mode,
		DenseLR: 0.05, EmbLR: 0.05,
		Duration: s.Duration, MaxSamples: s.MaxSamples,
		LookaheadDepth: lookahead,
	}
}

func (e *Env) kgeOpts(b train.Backend, lookahead int, beta bool) train.KGEOptions {
	s := e.Scale
	gen := data.NewKGGen(data.KGConfig{Entities: s.KGEntities, Relations: 16, Clusters: 32, Seed: 17})
	model := models.NewKGE(s.Dim)
	return train.KGEOptions{
		Gen: gen, Model: model, Backend: b,
		Workers: s.Workers, Negatives: 4, EmbLR: 0.1,
		Duration: s.Duration, MaxSamples: s.MaxSamples,
		LookaheadDepth: lookahead, BETA: beta,
	}
}

func (e *Env) gnnOpts(b train.Backend, lookahead int) train.GNNOptions {
	s := e.Scale
	graph := data.NewGraphGen(data.GraphConfig{Nodes: s.GraphNodes, Classes: 8, Seed: 19})
	sage := models.NewGraphSage(s.Dim, 32, 8, 23)
	return train.GNNOptions{
		Graph: graph, Sage: sage, Backend: b,
		Workers: s.Workers, Fanout: 4, Fanout2: 4,
		DenseLR: 0.05, EmbLR: 0.05, Batch: 16,
		Duration: s.Duration, MaxSamples: s.MaxSamples,
		LookaheadDepth: lookahead,
	}
}

// kgeInit is the embedding initializer for multiplicative scorers.
func (e *Env) kgeInit() mlkv.Initializer { return mlkv.UniformInit(0.5) }

// ctrInit initializes CTR/GNN embeddings.
func (e *Env) ctrInit() mlkv.Initializer { return mlkv.UniformInit(0.1) }
