package bench

import (
	"fmt"
	"strings"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/train"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// Fig2 reproduces Figure 2: the scalability problem statement. DLRM trains
// on a plain FASTER backend synchronously (data stalls) and fully
// asynchronously (staleness), reporting the latency breakdown, throughput,
// and final AUC of each.
func (e *Env) Fig2() error {
	e.printf("== Figure 2: scalability issues (sync vs fully async, FASTER backend) ==\n")
	e.printf("%-12s %10s %10s %10s %12s %8s\n", "mode", "emb%", "fwd%", "bwd%", "samples/s", "AUC")
	dlrm := e.tasks()[0]
	for _, mode := range []struct {
		name  string
		mode  train.Mode
		bound int64
	}{
		{"sync", train.ModeSync, mlkv.BSP},
		{"fully-async", train.ModeAsync, mlkv.ASP},
	} {
		res, err := e.trainModel("fig2", mode.bound, e.Scale.BufferKBs[0], dlrm.keys, dlrm.init, func(b train.Backend) (*train.Result, error) {
			return train.TrainCTR(e.ctrOpts(b, mode.mode, 0))
		})
		if err != nil {
			return err
		}
		tot := res.Stage.Total().Seconds()
		if tot == 0 {
			tot = 1
		}
		e.printf("%-12s %9.1f%% %9.1f%% %9.1f%% %12.0f %8.4f\n",
			mode.name,
			res.Stage.Emb.Seconds()/tot*100,
			res.Stage.Forward.Seconds()/tot*100,
			res.Stage.Backward.Seconds()/tot*100,
			res.Throughput, res.FinalMetric)
	}
	return nil
}

// Fig6 reproduces Figure 6: end-to-end convergence with in-memory-scale
// data. Specialized frameworks' proprietary in-memory storage (MemBackend)
// versus the same pipeline over MLKV; MLKV should converge to the same
// quality at comparable speed (paper: within ~2.5–22%).
func (e *Env) Fig6() error {
	e.printf("== Figure 6: end-to-end convergence, native in-memory vs MLKV ==\n")
	bigBuf := e.Scale.BufferKBs[len(e.Scale.BufferKBs)-1] * 4 // in-memory regime
	evalEvery := e.evalEvery()
	for _, t := range e.tasks() {
		run := func(b train.Backend) (*train.Result, error) { return t.run(b, 0, evalEvery) }
		res, err := run(train.NewMemBackend("native", e.Scale.Dim, t.init))
		if err != nil {
			return err
		}
		printCurve(e, strings.ToUpper(t.name)+"/native", t.metric, res)
		if res, err = e.trainModel("fig6"+t.name, 8, bigBuf, t.keys, t.init, run); err != nil {
			return err
		}
		printCurve(e, strings.ToUpper(t.name)+"/mlkv", t.metric, res)
	}
	return nil
}

// evalEvery spaces the convergence curves' points: five per run.
func (e *Env) evalEvery() time.Duration {
	if every := e.Scale.Duration / 5; every > 0 {
		return every
	}
	return 100 * time.Millisecond
}

func printCurve(e *Env, name, metric string, res *train.Result) {
	e.printf("%-14s thru=%8.0f/s final %s=%.3f curve:", name, res.Throughput, metric, res.FinalMetric)
	for _, p := range res.Curve {
		e.printf(" (%.1fs,%.3f)", p.Seconds, p.Metric)
	}
	e.printf("\n")
}

// Fig7 reproduces Figure 7: larger-than-memory training throughput (top)
// and energy (bottom) across backends and buffer sizes, for all three
// tasks, MLKV against plain FASTER — the same hybrid log behind the same
// public API with the clock on and off, so the figure measures the clock
// and look-ahead and nothing else. Expected shape: mlkv > faster, the gap
// narrowing as buffers grow.
func (e *Env) Fig7() error {
	e.printf("== Figure 7: larger-than-memory throughput and energy vs buffer size ==\n")
	for _, t := range e.tasks() {
		e.printf("-- %s --\n", t.name)
		e.printf("%-8s", "backend")
		for _, kb := range e.Scale.BufferKBs {
			e.printf(" %9dKB %10s", kb, "J/batch")
		}
		e.printf("\n")
		for _, v := range []struct {
			name  string
			bound int64
			la    int
		}{
			{"mlkv", 8, 16},
			{"faster", mlkv.Disabled, 0},
		} {
			e.printf("%-8s", v.name)
			for _, kb := range e.Scale.BufferKBs {
				res, err := e.trainModel(v.name, v.bound, kb, t.keys, t.init, func(b train.Backend) (*train.Result, error) {
					return t.run(b, v.la, 0)
				})
				if err != nil {
					return err
				}
				e.printf(" %11.0f %10.2f", res.Throughput, JoulesPerBatch(res, 32))
			}
			e.printf("\n")
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: throughput vs model quality across staleness
// bounds at a fixed buffer. Expected shape: throughput rises steeply with
// the bound (up to ~6.6× in the paper) while the metric degrades <0.1%.
func (e *Env) Fig8() error {
	e.printf("== Figure 8: effect of bounded staleness consistency ==\n")
	bufKB := e.Scale.BufferKBs[0]
	ts := e.tasks()
	dlrm, kge := ts[0], ts[1]
	e.printf("%-6s %14s %10s %14s %10s\n", "bound", "dlrm-samp/s", "AUC", "kge-samp/s", "Hits@10")
	for _, bound := range []int64{0, 4, 10, 20, 40, 80} {
		mode := train.ModeAsync
		if bound == 0 {
			mode = train.ModeSync
		}
		resC, err := e.trainModel("fig8c", bound, bufKB, dlrm.keys, dlrm.init, func(b train.Backend) (*train.Result, error) {
			return train.TrainCTR(e.ctrOpts(b, mode, 16))
		})
		if err != nil {
			return err
		}
		resK, err := e.trainModel("fig8k", bound, bufKB, kge.keys, kge.init, func(b train.Backend) (*train.Result, error) {
			return kge.run(b, 16, 0)
		})
		if err != nil {
			return err
		}
		e.printf("%-6d %14.0f %10.4f %14.0f %10.2f\n",
			bound, resC.Throughput, resC.FinalMetric, resK.Throughput, resK.FinalMetric)
	}
	return nil
}

// Fig9 reproduces Figure 9: look-ahead prefetching. (a) DLRM relative
// speedup over the lookahead-off baseline across staleness bounds — large
// at small bounds, fading as bounds grow; (b) KGE throughput vs buffer size
// for MLKV/FASTER × standard/BETA orderings.
func (e *Env) Fig9() error {
	e.printf("== Figure 9a: DLRM relative speedup from look-ahead prefetching ==\n")
	bufKB := e.Scale.BufferKBs[0]
	ts := e.tasks()
	dlrm, kge := ts[0], ts[1]
	e.printf("%-6s %12s %12s %10s\n", "bound", "off-samp/s", "on-samp/s", "speedup")
	for _, bound := range []int64{0, 4, 10, 20, 40, 80} {
		mode := train.ModeAsync
		if bound == 0 {
			mode = train.ModeSync
		}
		var thr [2]float64
		for i, la := range []int{0, 32} {
			res, err := e.trainModel("fig9a", bound, bufKB, dlrm.keys, dlrm.init, func(b train.Backend) (*train.Result, error) {
				return train.TrainCTR(e.ctrOpts(b, mode, la))
			})
			if err != nil {
				return err
			}
			thr[i] = res.Throughput
		}
		e.printf("%-6d %12.0f %12.0f %9.2fx\n", bound, thr[0], thr[1], thr[1]/thr[0])
	}

	e.printf("== Figure 9b: KGE throughput vs buffer (MLKV/FASTER x standard/BETA) ==\n")
	e.printf("%-16s", "variant")
	for _, kb := range e.Scale.BufferKBs {
		e.printf(" %9dKB", kb)
	}
	e.printf("\n")
	for _, v := range []struct {
		name  string
		bound int64
		la    int
		beta  bool
	}{
		{"mlkv", 8, 16, false},
		{"faster", mlkv.Disabled, 0, false},
		{"mlkv-beta", 8, 16, true},
		{"faster-beta", mlkv.Disabled, 0, true},
	} {
		e.printf("%-16s", v.name)
		for _, kb := range e.Scale.BufferKBs {
			res, err := e.trainModel("fig9b", v.bound, kb, kge.keys, kge.init, func(b train.Backend) (*train.Result, error) {
				return train.TrainKGE(e.kgeOpts(b, v.la, v.beta))
			})
			if err != nil {
				return err
			}
			e.printf(" %11.0f", res.Throughput)
		}
		e.printf("\n")
	}
	return nil
}

// Fig10 reproduces Figure 10: YCSB (50/50 read-write) throughput across
// buffer sizes, thread counts, and value sizes, under uniform and zipfian
// access. The paper compares MLKV with FASTER (expected: within 10%
// uniform / 20% zipfian); here YCSB runs at ASP, under which no read waits
// and the clock does not run, so MLKV is FASTER's protocol and each point
// runs once.
func (e *Env) Fig10() error {
	e.printf("== Figure 10: YCSB throughput ==\n")
	e.printf("ASP runs no clock, so mlkv and faster are one protocol: one column\n")
	run := func(bufKB, threads, vs int, dist ycsb.Distribution) (float64, error) {
		res, err := e.runYCSB("fig10", vs, ycsb.Options{
			Records: e.Scale.YCSBRecords, Threads: threads,
			ReadFraction: 0.5, Dist: dist, MaxOps: e.Scale.YCSBOps, Seed: 42,
		}, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithMemory(int64(bufKB)<<10))
		if err != nil {
			return 0, err
		}
		return res.Throughput, nil
	}
	vsDefault := e.Scale.ValueSizes[0]
	thDefault := e.Scale.Threads[len(e.Scale.Threads)-1]
	bufDefault := e.Scale.BufferKBs[0]
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
		e.printf("-- %s --\n", dist)
		e.printf("%-10s %-10s %12s\n", "sweep", "point", "ops/s")
		type point struct {
			sweep, label       string
			bufKB, threads, vs int
		}
		var points []point
		for _, kb := range e.Scale.BufferKBs {
			points = append(points, point{"buffer", fmt.Sprintf("%dKB", kb), kb, thDefault, vsDefault})
		}
		for _, th := range e.Scale.Threads {
			points = append(points, point{"threads", fmt.Sprint(th), bufDefault, th, vsDefault})
		}
		for _, vs := range e.Scale.ValueSizes {
			points = append(points, point{"valsize", fmt.Sprint(vs), bufDefault, thDefault, vs})
		}
		for _, p := range points {
			ops, err := run(p.bufKB, p.threads, p.vs, dist)
			if err != nil {
				return err
			}
			e.printf("%-10s %-10s %12.0f\n", p.sweep, p.label, ops)
		}
	}
	return nil
}

// Fig11 reproduces the eBay case studies with synthetic risk graphs:
// (a) Trisk-like — GNN throughput vs buffer for 2-instance DDP (in-memory,
// per-batch gradient exchange) vs single-instance MLKV vs FASTER;
// (b) Payout-like — AUC/accuracy over time for MLKV/FASTER at small and
// large buffers. Expected: MLKV reaches ~70% of DDP's throughput on one
// instance, and larger buffers + lookahead converge faster.
func (e *Env) Fig11() error {
	e.printf("== Figure 11a: Trisk-like GNN throughput vs buffer ==\n")
	e.printf("%-8s", "backend")
	for _, kb := range e.Scale.BufferKBs {
		e.printf(" %9dKB", kb)
	}
	e.printf(" %11s\n", "DDP(2-inst)")
	gnn := e.tasks()[2]
	// DDP: everything in memory across 2 instances, paying a per-batch
	// gradient-exchange delay.
	ddpOpts := e.gnnOpts(train.NewMemBackend("ddp", e.Scale.Dim, gnn.init), 0)
	ddpOpts.BatchSyncDelay = 2 * time.Millisecond
	ddpRes, err := train.TrainGNN(ddpOpts)
	if err != nil {
		return err
	}
	for _, v := range []struct {
		name  string
		bound int64
		la    int
	}{
		{"mlkv", 8, 16},
		{"faster", mlkv.Disabled, 0},
	} {
		e.printf("%-8s", v.name)
		for _, kb := range e.Scale.BufferKBs {
			res, err := e.trainModel("fig11a", v.bound, kb, gnn.keys, gnn.init, func(b train.Backend) (*train.Result, error) {
				return gnn.run(b, v.la, 0)
			})
			if err != nil {
				return err
			}
			e.printf(" %11.0f", res.Throughput)
		}
		if v.name == "mlkv" {
			e.printf(" %11.0f\n", ddpRes.Throughput)
		} else {
			e.printf("\n")
		}
	}

	e.printf("== Figure 11b: Payout-like convergence, buffer small vs large ==\n")
	evalEvery := e.evalEvery()
	small, large := e.Scale.BufferKBs[0], e.Scale.BufferKBs[len(e.Scale.BufferKBs)-1]
	for _, v := range []struct {
		name  string
		bound int64
		la    int
		kb    int
	}{
		{"mlkv-small", 8, 16, small},
		{"mlkv-large", 8, 16, large},
		{"faster-small", mlkv.Disabled, 0, small},
		{"faster-large", mlkv.Disabled, 0, large},
	} {
		res, err := e.trainModel("fig11b", v.bound, v.kb, gnn.keys, gnn.init, func(b train.Backend) (*train.Result, error) {
			return gnn.run(b, v.la, evalEvery)
		})
		if err != nil {
			return err
		}
		printCurve(e, v.name, "Acc%", res)
	}
	return nil
}

// ShardSweep goes beyond the paper: it measures how hash-partitioning the
// model across independent store instances (each with its own hybrid log,
// index, and epoch domain) scales the same Zipf 90/10 read/update YCSB mix,
// holding the total memory budget, index budget, and thread count fixed.
// Writes are not fsynced per page: the public API has no such option. The
// speedup column is throughput relative to the unsharded model.
func (e *Env) ShardSweep() error {
	e.printf("== Sharding: YCSB zipfian read-heavy throughput vs shard count ==\n")
	threads := e.Scale.Threads[len(e.Scale.Threads)-1]
	if threads < 4 {
		threads = 4
	}
	vs := e.Scale.ValueSizes[0]
	bufKB := e.Scale.BufferKBs[0]
	e.printf("records=%d ops=%d threads=%d valuesize=%d buffer=%dKB read-fraction=0.9\n",
		e.Scale.YCSBRecords, e.Scale.YCSBOps, threads, vs, bufKB)
	e.printf("%-8s %12s %9s\n", "shards", "ops/s", "speedup")
	var base float64
	for _, shards := range []int{1, 2, 4, 8} {
		thr, err := e.runShardedYCSB(shards, threads, vs, bufKB)
		if err != nil {
			return err
		}
		if shards == 1 {
			base = thr
		}
		e.printf("%-8d %12.0f %8.2fx\n", shards, thr, thr/base)
	}
	return nil
}

// runShardedYCSB runs the Zipf 90/10 mix on an ASP model hash-partitioned
// across the given shard count, splitting the bufKB memory budget evenly.
func (e *Env) runShardedYCSB(shards, threads, vs, bufKB int) (float64, error) {
	res, err := e.runYCSB("shardsweep", vs, ycsb.Options{
		Records: e.Scale.YCSBRecords, Threads: threads,
		ReadFraction: 0.9, Dist: ycsb.Zipfian, MaxOps: e.Scale.YCSBOps, Seed: 42,
	}, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithShards(shards), mlkv.WithMemory(int64(bufKB)<<10))
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

// runYCSB opens a fresh local model of vs-byte rows through the public API
// in its own directory, sized for o.Records keys, and runs o on it.
func (e *Env) runYCSB(tag string, vs int, o ycsb.Options, opts ...mlkv.Option) (*ycsb.Result, error) {
	m, closeDB, err := e.openLocal(tag, vs/4, append(opts, mlkv.WithExpectedKeys(o.Records))...)
	if err != nil {
		return nil, err
	}
	defer closeDB()
	o.Model = m
	return ycsb.Run(o)
}

// Run dispatches one experiment by name. With Env.JSONDir set, the
// measurements the experiment records land in BENCH_<name>.json.
func (e *Env) Run(name string) error {
	if name == "all" {
		for _, n := range []string{"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "shards", "network", "cache", "allocs", "latency", "cluster", "failover"} {
			if err := e.Run(n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	e.results = e.results[:0]
	var err error
	switch name {
	case "fig2":
		err = e.Fig2()
	case "fig6":
		err = e.Fig6()
	case "fig7":
		err = e.Fig7()
	case "fig8":
		err = e.Fig8()
	case "fig9":
		err = e.Fig9()
	case "fig10":
		err = e.Fig10()
	case "fig11":
		err = e.Fig11()
	case "shards":
		err = e.ShardSweep()
	case "network":
		err = e.NetworkSweep()
	case "cache":
		err = e.CacheSweep()
	case "allocs":
		err = e.AllocSweep()
	case "latency":
		err = e.LatencySweep()
	case "cluster":
		err = e.ClusterSweep()
	case "failover":
		err = e.FailoverSweep()
	default:
		return fmt.Errorf("bench: unknown experiment %q (fig2|fig6|fig7|fig8|fig9|fig10|fig11|shards|network|cache|allocs|latency|cluster|failover|all)", name)
	}
	if err != nil {
		return err
	}
	return e.writeJSON(name)
}
