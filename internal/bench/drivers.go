package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/util"
)

// serve runs an in-process mlkv-server on ln over a registry opened from
// cfg, as one node of the cluster st when st is non-nil. stop shuts the
// server down, then closes st and the registry.
func serve(ln net.Listener, cfg server.RegistryConfig, st *cluster.State) (reg *server.Registry, stop func()) {
	reg = server.NewRegistry(cfg)
	scfg := server.Config{Registry: reg}
	if st != nil {
		scfg.Cluster = st
	}
	srv := server.New(scfg)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return reg, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
		if st != nil {
			st.Close()
		}
		reg.Close()
	}
}

// serveLoopback serves a plain server over store on a fresh loopback
// listener and returns its mlkv:// target.
func serveLoopback(store kv.ShardedConfig) (target string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	_, stop = serve(ln, server.RegistryConfig{Store: store}, nil)
	return mlkv.Scheme + ln.Addr().String(), stop, nil
}

// serverStore sizes a loopback server's models the way a local Open sizes
// a model — 1 024-record pages, bufKB kilobytes of memory, an index for
// records keys — so a local and a remote leg differ by the serving layer
// alone.
func (e *Env) serverStore(tag string, bufKB int, records uint64, bound int64) kv.ShardedConfig {
	return kv.ShardedConfig{
		Dir: e.dir(tag), RecordsPerPage: 1024, MemoryBytes: int64(bufKB) << 10,
		ExpectedKeys: records, StalenessBound: bound,
	}
}

// A loop is one closed-loop cell: workers sessions on one model, each
// issuing batch-key ops back to back until dur has passed. Every worker
// completes at least one op even if session setup ate the whole window
// (heavy contention on a small host), so every recorded row carries a real
// distribution instead of zeroed percentiles.
type loop struct {
	workers, batch int
	dur            time.Duration
	// keys returns worker w's key stream; each op takes batch keys from it.
	keys func(w int) func() uint64
	// read is the timed op on one batch. write, when set, follows it
	// untimed with the same keys and values.
	read, write func(s *mlkv.Session, keys []uint64, vals []float32) error
}

// run drives m and returns the keys read per second and the read op's
// latency distribution across every worker; the first error stops the
// cell.
func (l loop) run(m *mlkv.Model) (float64, latency.Snapshot, error) {
	var lat latency.Histogram
	var keysRead atomic.Int64
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				fail(err)
				return
			}
			defer s.Close()
			next := l.keys(w)
			keys := make([]uint64, l.batch)
			vals := make([]float32, l.batch*m.Dim())
			for first := true; first || time.Since(start) < l.dur; first = false {
				for i := range keys {
					keys[i] = next()
				}
				opStart := time.Now()
				if err := l.read(s, keys, vals); err != nil {
					fail(err)
					return
				}
				lat.Since(opStart)
				if l.write != nil {
					if err := l.write(s, keys, vals); err != nil {
						fail(err)
						return
					}
				}
				keysRead.Add(int64(l.batch))
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, latency.Snapshot{}, fmt.Errorf("bench: closed loop: %w", firstErr)
	}
	return float64(keysRead.Load()) / time.Since(start).Seconds(), lat.Snapshot(), nil
}

// zipfKeys gives worker w a Zipf(0.99) stream over records keys, seeded
// seed0+w so legs and workers draw different streams.
func zipfKeys(records, seed0 uint64) func(w int) func() uint64 {
	return func(w int) func() uint64 {
		return util.NewScrambledZipf(util.NewRNG(seed0+uint64(w)), records, 0.99).Next
	}
}

// cursorKeys gives worker w a strided sequential cursor over records keys,
// so the keys of one batch are distinct.
func cursorKeys(records, seed0 uint64, workers int) func(w int) func() uint64 {
	return func(w int) func() uint64 {
		cursor := (seed0 + uint64(w)*records/uint64(workers)) % records
		return func() uint64 {
			k := cursor
			cursor = (cursor + 1) % records
			return k
		}
	}
}

// getOrBatch reads a batch of one with Get and anything larger with one
// GetBatch.
func getOrBatch(s *mlkv.Session, keys []uint64, dst []float32) error {
	if len(keys) == 1 {
		return s.Get(keys[0], dst)
	}
	return s.GetBatch(keys, dst)
}
