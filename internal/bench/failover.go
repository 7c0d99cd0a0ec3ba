package bench

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/faultnet"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/server"
)

// Failover experiment: how long does losing a primary actually cost a
// writer? Each trial stands up a fresh three-node cluster (two primaries
// plus a replica of the first, the first fronted by a faultnet proxy),
// severs the primary mid-workload, and measures kill-to-first-acked-write
// — the end-to-end outage a client experiences: suspicion timeout, quorum
// confirmation, replica promotion, map gossip, and the client's own
// retry/refetch loop, all in one number.

// failoverHealth is the detector tuning the experiment runs with.
var failoverBenchHealth = cluster.HealthConfig{
	Interval:     25 * time.Millisecond,
	SuspectAfter: 250 * time.Millisecond,
}

// FailoverSweep runs the kill-the-primary trials and records the
// detection-to-recovery latency distribution.
func (e *Env) FailoverSweep() error {
	const trials = 5
	hc := failoverBenchHealth

	e.printf("== Failover: kill-to-first-acked-write ==\n")
	e.printf("heartbeat=%s suspect-after=%s trials=%d\n", hc.Interval, hc.SuspectAfter, trials)
	e.printf("%-7s %14s\n", "trial", "recovery-ms")

	var lat latency.Histogram
	for trial := 0; trial < trials; trial++ {
		d, err := e.failoverTrial(trial, hc)
		if err != nil {
			return fmt.Errorf("bench: failover trial %d: %w", trial, err)
		}
		lat.Record(d)
		e.printf("%-7d %14.1f\n", trial, float64(d)/1e6)
	}
	s := lat.Snapshot()
	e.printf("recovery p50=%.1fms max=%.1fms\n", latency.Us(s.P50)/1e3, latency.Us(s.Max)/1e3)
	r := Result{
		Name: "failover/kill-primary",
		Config: map[string]any{
			"trials":       trials,
			"heartbeat_ms": hc.Interval.Milliseconds(),
			"suspect_ms":   hc.SuspectAfter.Milliseconds(),
			"nodes":        3,
			"unit":         "kill-to-first-acked-write",
			"max_ms":       latency.Us(s.Max) / 1e3,
			"mean_ms":      latency.Us(s.Mean()) / 1e3,
		},
	}
	r.SetLatency(s)
	e.Record(r)
	return nil
}

// failoverTrial runs one kill cycle and returns the kill-to-recovery time.
func (e *Env) failoverTrial(trial int, hc cluster.HealthConfig) (time.Duration, error) {
	const (
		dim  = 8
		keys = 64
	)
	var teardowns []func()
	defer func() {
		for i := len(teardowns) - 1; i >= 0; i-- {
			teardowns[i]()
		}
	}()

	lns := make([]net.Listener, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		lns[i] = ln
		teardowns = append(teardowns, func() { _ = ln.Close() })
	}
	proxy, err := faultnet.New(lns[0].Addr().String())
	if err != nil {
		return 0, err
	}
	teardowns = append(teardowns, func() { _ = proxy.Close() })

	m, err := cluster.BuildMap([]cluster.Node{
		{ID: "n0", Addr: proxy.Addr(), Role: cluster.RolePrimary},
		{ID: "n1", Addr: lns[1].Addr().String(), Role: cluster.RolePrimary},
		{ID: "n2", Addr: lns[2].Addr().String(), Role: cluster.RoleReplica, PrimaryID: "n0"},
	})
	if err != nil {
		return 0, err
	}
	var (
		regs   [3]*server.Registry
		states [3]*cluster.State
	)
	for i, id := range []string{"n0", "n1", "n2"} {
		st, err := cluster.NewState(id, m)
		if err != nil {
			return 0, err
		}
		st.EnableReplication()
		reg, stop := serve(lns[i], server.RegistryConfig{
			Store: kv.ShardedConfig{
				Dir: e.dir(fmt.Sprintf("failover-%d-%s", trial, id)), MemoryBytes: 1 << 20,
				ExpectedKeys: keys * 4,
			},
			Name: id,
		}, st)
		teardowns = append(teardowns, stop)
		cfg := hc
		cfg.Watermark = reg.ReplWatermark
		st.StartHealth(cfg)
		regs[i], states[i] = reg, st
	}

	target := mlkv.Scheme + strings.Join([]string{proxy.Addr(), lns[1].Addr().String(), lns[2].Addr().String()}, ",")
	db, err := mlkv.Connect(target, mlkv.WithConns(2))
	if err != nil {
		return 0, err
	}
	teardowns = append(teardowns, func() { _ = db.Close() })
	mdl, err := db.Open("failover", dim, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		return 0, err
	}
	ses, err := mdl.NewSession()
	if err != nil {
		return 0, err
	}
	teardowns = append(teardowns, func() { ses.Close(); _ = mdl.Close() })

	val := make([]float32, dim)
	for i := range val {
		val[i] = float32(trial + 1)
	}
	var probe uint64
	var n0Writes uint64
	found := false
	for k := uint64(0); k < keys; k++ {
		if err := ses.Put(k, val); err != nil {
			return 0, err
		}
		if m.Owner(k).ID == "n0" {
			n0Writes++
			if !found {
				probe, found = k, true
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("no keys landed on n0")
	}
	// The kill is only meaningful once the replica has applied what the
	// primary acked; otherwise recovery time includes replay the workload
	// never waited for.
	deadline := time.Now().Add(10 * time.Second)
	for regs[2].ReplWatermark() < n0Writes {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica never caught up (watermark %d < %d)", regs[2].ReplWatermark(), n0Writes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary: network first (peers see silence), then process.
	proxy.Partition()
	states[0].Close()
	t0 := time.Now()
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := ses.PutCtx(ctx, probe, val)
		cancel()
		if err == nil {
			return time.Since(t0), nil
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("no acked write within 30s of the kill: %w", err)
		}
	}
}
