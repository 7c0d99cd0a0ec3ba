package bench

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// clusterNodes stands up n loopback mlkv-servers as one logical store: a
// plain single server for n=1 (the pre-cluster baseline) or, for n=3, two
// primaries plus a read replica of the first. It returns the mlkv://
// seed-list target and a teardown function.
func (e *Env) clusterNodes(n int, records uint64, bufKB int) (string, func(), error) {
	var stops []func()
	teardown := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	specs := make([]cluster.Node, n)
	closeFrom := func(i int) {
		for _, ln := range lns[i:] {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeFrom(0)
			return "", nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
		specs[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), Addr: addrs[i], Role: cluster.RolePrimary}
	}
	var mp *cluster.Map
	if n > 1 {
		specs[n-1].Role = cluster.RoleReplica
		specs[n-1].PrimaryID = specs[0].ID
		var err error
		if mp, err = cluster.BuildMap(specs); err != nil {
			closeFrom(0)
			return "", nil, err
		}
	}
	for i, ln := range lns {
		var st *cluster.State
		if mp != nil {
			var err error
			if st, err = cluster.NewState(specs[i].ID, mp); err != nil {
				closeFrom(i)
				teardown()
				return "", nil, err
			}
			st.EnableReplication()
		}
		_, stop := serve(ln, server.RegistryConfig{
			Store: e.serverStore(fmt.Sprintf("cluster-%dn", n), bufKB, records, 0),
			Name:  specs[i].ID,
		}, st)
		stops = append(stops, stop)
	}
	return mlkv.Scheme + strings.Join(addrs, ","), teardown, nil
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
	dur := max(s.Duration/4, 150*time.Millisecond)
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
			if err := ycsb.Load(m, records, 3); err != nil {
				return err
			}
			for _, batch := range []int{1, 256} {
				seed := 1201 + uint64(nodes*1000+batch)
				l := loop{workers: workers, batch: batch, dur: dur}
				if bc.bound == mlkv.ASP {
					l.keys, l.read = zipfKeys(records, seed), getOrBatch
				} else {
					// The clocked-read workload: each worker cycles
					// GetBatch→PutBatch over a strided sequential cursor,
					// so every staleness token a read acquires is
					// released by the write that follows and the bound
					// makes steady progress. A Zipf stream would read its
					// hot key dozens of times before the balancing puts
					// land, push the key's clock past any reasonable bound,
					// and deadlock every worker on writes none of them can
					// reach. The latency is the read's, where the
					// blocking-bound serial gate shows up.
					l.keys = cursorKeys(records, seed, workers)
					l.read, l.write = (*mlkv.Session).GetBatch, (*mlkv.Session).PutBatch
				}
				rate, lat, err := l.run(m)
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
