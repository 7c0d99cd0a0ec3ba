package bench

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/server"
)

// clusterNodes stands up n loopback mlkv-servers as one logical store: a
// plain single server for n=1 (the pre-cluster baseline) or, for n=3, two
// primaries plus a read replica of the first. It returns the mlkv://
// seed-list target and a teardown function.
func (e *Env) clusterNodes(n int, records uint64, bufKB int) (string, func(), error) {
	var (
		addrs     []string
		teardowns []func()
	)
	teardown := func() {
		for i := len(teardowns) - 1; i >= 0; i-- {
			teardowns[i]()
		}
	}
	lns := make([]net.Listener, n)
	specs := make([]cluster.Node, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			teardown()
			return "", nil, err
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
		specs[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), Addr: addrs[i], Role: cluster.RolePrimary}
	}
	var mp *cluster.Map
	if n > 1 {
		specs[n-1].Role = cluster.RoleReplica
		specs[n-1].PrimaryID = specs[0].ID
		var err error
		if mp, err = cluster.BuildMap(specs); err != nil {
			teardown()
			return "", nil, err
		}
	}
	for i := range lns {
		dir := e.dir(fmt.Sprintf("cluster-%dn", n))
		reg := server.NewRegistry(server.RegistryConfig{
			Store: kv.ShardedConfig{
				Dir: dir, MemoryBytes: int64(bufKB) << 10, RecordsPerPage: 256,
				ExpectedKeys: records,
			},
			Name: specs[i].ID,
		})
		cfg := server.Config{Registry: reg}
		var st *cluster.State
		if mp != nil {
			var err error
			if st, err = cluster.NewState(specs[i].ID, mp); err != nil {
				reg.Close()
				teardown()
				return "", nil, err
			}
			st.EnableReplication()
			cfg.Cluster = st
		}
		srv := server.New(cfg)
		serveErr := make(chan error, 1)
		go func(ln net.Listener) { serveErr <- srv.Serve(ln) }(lns[i])
		teardowns = append(teardowns, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-serveErr
			if st != nil {
				st.Close()
			}
			reg.Close()
		})
	}
	return mlkv.Scheme + strings.Join(addrs, ","), teardown, nil
}

// measureClusterMix is the clocked-read workload: each worker cycles
// GetBatch→PutBatch over a strided sequential cursor, so every staleness
// token a read acquires is released by the write that follows and a
// finite bound makes steady progress. The keys must be distinct within a
// batch — a Zipf stream would read its hot key dozens of times before the
// balancing puts land, push the key's clock past any reasonable bound,
// and deadlock every worker on writes none of them can reach. keys/s
// counts reads; the latency distribution is the read op's (the leg where
// the blocking-bound serial gate shows up).
func measureClusterMix(newSess func() (sweepSession, error), records uint64, dim, batch, workers int, dur time.Duration, seed0 uint64) (float64, latency.Snapshot, error) {
	var lat latency.Histogram
	var keysRead atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := newSess()
			if err != nil {
				fail(err)
				return
			}
			defer sess.Close()
			cursor := (seed0 + uint64(w)*records/uint64(workers)) % records
			keys := make([]uint64, batch)
			dst := make([]float32, batch*dim)
			for first := true; first || time.Since(start) < dur; first = false {
				for i := range keys {
					keys[i] = cursor
					cursor = (cursor + 1) % records
				}
				opStart := time.Now()
				if err := sess.GetBatch(keys, dst); err != nil {
					fail(err)
					return
				}
				lat.Since(opStart)
				if err := sess.PutBatch(keys, dst); err != nil {
					fail(err)
					return
				}
				keysRead.Add(int64(batch))
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, latency.Snapshot{}, fmt.Errorf("bench: cluster measure: %w", firstErr)
	}
	return float64(keysRead.Load()) / time.Since(start).Seconds(), lat.Snapshot(), nil
}

// ClusterSweep measures what the routing layer costs and buys: the Zipf
// read workload against one loopback node and against a three-node
// cluster (two primaries plus a read replica of the first), at batch 1
// and 256, under ASP and a finite SSP bound. ASP rows are read-only —
// non-blocking reads fan out in parallel and may land on the replica; SSP
// rows run the balanced GetBatch→PutBatch cycle, where a multi-node batch
// pays the blocking-bound serial gate the single node escapes (its whole
// batch ships in one frame and the server gates it internally).
func (e *Env) ClusterSweep() error {
	s := e.Scale
	records := s.YCSBRecords
	dim := s.Dim
	bufKB := s.BufferKBs[0]
	dur := s.Duration / 4
	if dur < 150*time.Millisecond {
		dur = 150 * time.Millisecond
	}
	const workers = 4
	const sspBound = 64

	e.printf("== Cluster: one logical store across loopback nodes ==\n")
	e.printf("records=%d dim=%d buffer=%dKB workers=%d dur=%s/cell ssp-bound=%d\n",
		records, dim, bufKB, workers, dur, sspBound)
	e.printf("%-7s %-6s %-7s %14s %10s %10s %10s\n",
		"nodes", "bound", "batch", "keys/s", "p50-µs", "p99-µs", "p999-µs")

	for _, nodes := range []int{1, 3} {
		target, teardown, err := e.clusterNodes(nodes, records, bufKB)
		if err != nil {
			return err
		}
		err = e.clusterLeg(target, nodes, records, dim, workers, sspBound, dur)
		teardown()
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Env) clusterLeg(target string, nodes int, records uint64, dim, workers int, sspBound int64, dur time.Duration) error {
	for _, bc := range []struct {
		name  string
		bound int64
	}{{"asp", mlkv.ASP}, {"ssp", sspBound}} {
		copts := []mlkv.ConnectOption{mlkv.WithConns(workers)}
		if nodes > 1 {
			copts = append(copts, mlkv.WithReadReplicas())
		}
		db, err := mlkv.Connect(target, copts...)
		if err != nil {
			return err
		}
		err = func() error {
			m, err := db.Open("cluster-"+bc.name, dim, mlkv.WithStalenessBound(bc.bound))
			if err != nil {
				return err
			}
			defer m.Close()
			sess := func() (sweepSession, error) { return m.NewSession() }
			if err := loadKeys(sess, records, dim); err != nil {
				return err
			}
			for _, batch := range []int{1, 256} {
				seed := 1201 + uint64(nodes*1000+batch)
				var rate float64
				var lat latency.Snapshot
				if bc.bound == mlkv.ASP {
					rate, lat, err = measureZipf(sess, records, dim, batch, workers, dur, seed)
				} else {
					rate, lat, err = measureClusterMix(sess, records, dim, batch, workers, dur, seed)
				}
				if err != nil {
					return err
				}
				e.printf("%-7d %-6s %-7d %14.0f %10.1f %10.1f %10.1f\n",
					nodes, bc.name, batch, rate,
					latency.Us(lat.P50), latency.Us(lat.P99), latency.Us(lat.P999))
				r := Result{
					Name:      fmt.Sprintf("cluster/nodes=%d/bound=%s/batch=%d", nodes, bc.name, batch),
					OpsPerSec: rate,
					Config: map[string]any{
						"records": records, "dim": dim, "workers": workers,
						"nodes": nodes, "bound": bc.name, "batch": batch,
						"read_replicas": nodes > 1, "zipf": 0.99, "ops": lat.Count,
					},
				}
				r.SetLatency(lat)
				e.Record(r)
			}
			if nodes > 1 {
				if st, err := m.StatsCtx(context.Background()); err == nil {
					e.printf("   nodes=%d bound=%s: replica-reads=%d redirects=%d epoch=%d\n",
						nodes, bc.name, st.ReplicaReads, st.ClusterRedirects, st.ClusterEpoch)
				}
			}
			return nil
		}()
		db.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
