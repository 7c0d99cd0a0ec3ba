// Package ycsb implements the YCSB-style NoSQL benchmark the paper uses to
// isolate storage overhead from application code (§IV-E, Figure 10):
// a configurable read/update mix over uniform or zipfian key popularity,
// run by N concurrent client threads against any *mlkv.Model — a local
// directory, one mlkv-server or a cluster, through the same public API.
package ycsb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Distribution selects the request popularity distribution.
type Distribution int

const (
	// Uniform draws keys uniformly.
	Uniform Distribution = iota
	// Zipfian draws keys with YCSB's scrambled-zipfian skew (θ = 0.99).
	Zipfian
)

// String names the distribution for benchmark output.
func (d Distribution) String() string {
	if d == Zipfian {
		return "zipfian"
	}
	return "uniform"
}

// Options configures a workload run.
type Options struct {
	// Model is the table the workload reads and writes: rows of
	// Model.Dim() float32s, one per key.
	Model        *mlkv.Model
	Records      uint64 // key space (loaded before the run)
	Threads      int
	ReadFraction float64 // 0.5 = YCSB-A
	Dist         Distribution
	Duration     time.Duration
	MaxOps       int64 // optional cap (0 = duration-bound)
	Seed         uint64
	SkipLoad     bool // reuse a pre-loaded model
	// Stop, when non-nil, ends the run early once closed: a load phase in
	// progress stops at the next batch (Run returns ErrLoadInterrupted),
	// and running workers finish their current operation and Run returns
	// the partial result. Used for graceful SIGINT/SIGTERM handling.
	Stop <-chan struct{}
}

// Result summarizes a run. Every read is a Session.Get, which
// first-touches a key it does not find, so a read never misses. Run times
// no op: the model's Stats().LatGet and LatPut do.
type Result struct {
	Ops        int64
	Reads      int64
	Updates    int64
	Elapsed    time.Duration
	Throughput float64 // ops/s
}

// loadBatch is the load phase's batch granularity: large enough that a
// sharded store fans out and a remote store amortizes round trips, small
// enough to stay well under the wire protocol's per-frame key limit.
const loadBatch = 1024

// ErrLoadInterrupted reports a load phase cut short by a stop signal.
var ErrLoadInterrupted = errors.New("ycsb: load interrupted")

// Load populates keys [0, records) with FillValue(key, seed), in batches
// so sharded stores fan the writes out and remote stores ship one frame
// per batch instead of one round trip per key.
func Load(m *mlkv.Model, records uint64, seed uint64) error {
	return load(m, records, seed, nil)
}

// load is Load plus a stop channel checked between batches, so a
// multi-minute preload answers an interrupt promptly.
func load(m *mlkv.Model, records uint64, seed uint64, stop <-chan struct{}) error {
	s, err := m.NewSession()
	if err != nil {
		return err
	}
	defer s.Close()
	dim := m.Dim()
	keys := make([]uint64, 0, loadBatch)
	vals := make([]float32, 0, loadBatch*dim)
	for k := uint64(0); k < records; k++ {
		keys = append(keys, k)
		vals = vals[:len(vals)+dim]
		FillValue(vals[len(vals)-dim:], k, seed)
		if len(keys) == loadBatch || k == records-1 {
			if err := s.PutBatch(keys, vals); err != nil {
				return fmt.Errorf("ycsb: load keys %d..%d: %w", keys[0], k, err)
			}
			keys, vals = keys[:0], vals[:0]
			select {
			case <-stop:
				return fmt.Errorf("%w after %d of %d records", ErrLoadInterrupted, k+1, records)
			default:
			}
		}
	}
	return nil
}

// FillValue writes the row the workload stores for key under seed: the
// same bits for the same (key, seed), each float uniform in [0, 1). Load
// writes FillValue(key, seed); an update writes a fresh seed.
func FillValue(dst []float32, key, seed uint64) {
	r := util.NewRNG(key ^ seed)
	for i := range dst {
		dst[i] = r.Float32()
	}
}

// Run executes the workload and reports throughput.
func Run(opts Options) (*Result, error) {
	if opts.Threads == 0 {
		opts.Threads = 4
	}
	if opts.ReadFraction == 0 {
		opts.ReadFraction = 0.5
	}
	if opts.Records == 0 {
		opts.Records = 100000
	}
	if !opts.SkipLoad {
		if err := load(opts.Model, opts.Records, opts.Seed, opts.Stop); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	var ops, reads, updates atomic.Int64
	stop := make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop) })
	var wg sync.WaitGroup
	errCh := make(chan error, opts.Threads)
	start := time.Now()
	for th := 0; th < opts.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			s, err := opts.Model.NewSession()
			if err != nil {
				errCh <- err
				halt()
				return
			}
			defer s.Close()
			r := util.NewRNG(opts.Seed + uint64(th)*104729 + 1)
			var zipf *util.ScrambledZipf
			if opts.Dist == Zipfian {
				zipf = util.NewScrambledZipf(r.Split(), opts.Records, 0.99)
			}
			buf := make([]float32, opts.Model.Dim())
			for i := 0; ; i++ {
				if i%256 == 0 {
					select {
					case <-stop:
						return
					case <-opts.Stop: // nil when unset: never ready
						halt()
						return
					default:
					}
					if opts.Duration > 0 && time.Since(start) >= opts.Duration {
						halt()
						return
					}
				}
				var key uint64
				if zipf != nil {
					key = zipf.Next()
				} else {
					key = r.Uint64n(opts.Records)
				}
				if r.Float64() < opts.ReadFraction {
					if err := s.Get(key, buf); err != nil {
						errCh <- err
						halt()
						return
					}
					reads.Add(1)
				} else {
					FillValue(buf, key, opts.Seed+uint64(i))
					if err := s.Put(key, buf); err != nil {
						errCh <- err
						halt()
						return
					}
					updates.Add(1)
				}
				if n := ops.Add(1); opts.MaxOps > 0 && n >= opts.MaxOps {
					halt()
					return
				}
			}
		}(th)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	res.Ops = ops.Load()
	res.Reads = reads.Load()
	res.Updates = updates.Load()
	res.Elapsed = time.Since(start)
	res.Throughput = float64(res.Ops) / res.Elapsed.Seconds()
	return res, nil
}
