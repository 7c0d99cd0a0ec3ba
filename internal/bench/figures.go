package bench

import (
	"fmt"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/faster"
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
	bufKB := e.Scale.BufferKBs[0]
	for _, mode := range []struct {
		name  string
		mode  train.Mode
		bound int64
	}{
		{"sync", train.ModeSync, core.BoundBSP},
		{"fully-async", train.ModeAsync, faster.BoundAsync},
	} {
		tbl, err := e.mlkvTable("fig2", e.Scale.Dim, mode.bound, bufKB, e.Scale.CTRCard*uint64(e.Scale.CTRFields), e.ctrInit())
		if err != nil {
			return err
		}
		res, err := train.TrainCTR(e.ctrOpts(train.NewTableBackend(tbl, false), mode.mode, 0))
		tbl.Close()
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
	evalEvery := e.Scale.Duration / 5
	if evalEvery <= 0 {
		evalEvery = 100 * time.Millisecond
	}

	runCTR := func(name string, b train.Backend) error {
		o := e.ctrOpts(b, train.ModeAsync, 0)
		o.EvalEvery = evalEvery
		res, err := train.TrainCTR(o)
		if err != nil {
			return err
		}
		printCurve(e, "DLRM/"+name, "AUC", res)
		return nil
	}
	if err := runCTR("native", train.NewMemBackend("native", e.Scale.Dim, e.ctrInit())); err != nil {
		return err
	}
	tbl, err := e.mlkvTable("fig6ctr", e.Scale.Dim, 8, bigBuf, e.Scale.CTRCard*uint64(e.Scale.CTRFields), e.ctrInit())
	if err != nil {
		return err
	}
	if err := runCTR("mlkv", train.NewTableBackend(tbl, true)); err != nil {
		tbl.Close()
		return err
	}
	tbl.Close()

	runKGE := func(name string, b train.Backend) error {
		o := e.kgeOpts(b, 0, false)
		o.EvalEvery = evalEvery
		res, err := train.TrainKGE(o)
		if err != nil {
			return err
		}
		printCurve(e, "KGE/"+name, "Hits@10", res)
		return nil
	}
	if err := runKGE("native", train.NewMemBackend("native", e.Scale.Dim, e.kgeInit())); err != nil {
		return err
	}
	ktbl, err := e.mlkvTable("fig6kge", e.Scale.Dim, 8, bigBuf, e.Scale.KGEntities, e.kgeInit())
	if err != nil {
		return err
	}
	if err := runKGE("mlkv", train.NewTableBackend(ktbl, true)); err != nil {
		ktbl.Close()
		return err
	}
	ktbl.Close()

	runGNN := func(name string, b train.Backend) error {
		o := e.gnnOpts(b, 0)
		o.EvalEvery = evalEvery
		res, err := train.TrainGNN(o)
		if err != nil {
			return err
		}
		printCurve(e, "GNN/"+name, "Acc%", res)
		return nil
	}
	if err := runGNN("native", train.NewMemBackend("native", e.Scale.Dim, e.ctrInit())); err != nil {
		return err
	}
	gtbl, err := e.mlkvTable("fig6gnn", e.Scale.Dim, 8, bigBuf, e.Scale.GraphNodes, e.ctrInit())
	if err != nil {
		return err
	}
	if err := runGNN("mlkv", train.NewTableBackend(gtbl, true)); err != nil {
		gtbl.Close()
		return err
	}
	gtbl.Close()
	return nil
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
// tasks, MLKV against plain FASTER. Expected shape: mlkv > faster, the gap
// narrowing as buffers grow.
func (e *Env) Fig7() error {
	e.printf("== Figure 7: larger-than-memory throughput and energy vs buffer size ==\n")
	tasks := []string{"dlrm", "kge", "gnn"}
	for _, task := range tasks {
		e.printf("-- %s --\n", task)
		e.printf("%-8s", "backend")
		for _, kb := range e.Scale.BufferKBs {
			e.printf(" %9dKB %10s", kb, "J/batch")
		}
		e.printf("\n")
		rows := map[string][]string{}
		order := []string{"mlkv", "faster"}
		for _, kb := range e.Scale.BufferKBs {
			init := e.ctrInit()
			keys := e.Scale.CTRCard * uint64(e.Scale.CTRFields)
			bound := int64(8)
			if task == "kge" {
				init = e.kgeInit()
				keys = e.Scale.KGEntities
			}
			if task == "gnn" {
				keys = e.Scale.GraphNodes
			}
			set, closeAll, err := e.backendSet(e.Scale.Dim, bound, kb, keys, init)
			if err != nil {
				return err
			}
			for _, name := range order {
				b := set[name]
				var res *train.Result
				la := 0
				if name == "mlkv" {
					la = 16
				}
				switch task {
				case "dlrm":
					res, err = train.TrainCTR(e.ctrOpts(b, train.ModeAsync, la))
				case "kge":
					res, err = train.TrainKGE(e.kgeOpts(b, la, false))
				case "gnn":
					res, err = train.TrainGNN(e.gnnOpts(b, la))
				}
				if err != nil {
					closeAll()
					return err
				}
				rows[name] = append(rows[name],
					fmt.Sprintf(" %11.0f %10.2f", res.Throughput, JoulesPerBatch(res, 32)))
			}
			closeAll()
		}
		for _, name := range order {
			e.printf("%-8s", name)
			for _, cell := range rows[name] {
				e.printf("%s", cell)
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
	bounds := []int64{0, 4, 10, 20, 40, 80}
	bufKB := e.Scale.BufferKBs[0]
	e.printf("%-6s %14s %10s %14s %10s\n", "bound", "dlrm-samp/s", "AUC", "kge-samp/s", "Hits@10")
	for _, bound := range bounds {
		tbl, err := e.mlkvTable("fig8c", e.Scale.Dim, bound, bufKB, e.Scale.CTRCard*uint64(e.Scale.CTRFields), e.ctrInit())
		if err != nil {
			return err
		}
		mode := train.ModeAsync
		if bound == 0 {
			mode = train.ModeSync
		}
		resC, err := train.TrainCTR(e.ctrOpts(train.NewTableBackend(tbl, true), mode, 16))
		tbl.Close()
		if err != nil {
			return err
		}
		ktbl, err := e.mlkvTable("fig8k", e.Scale.Dim, bound, bufKB, e.Scale.KGEntities, e.kgeInit())
		if err != nil {
			return err
		}
		resK, err := train.TrainKGE(e.kgeOpts(train.NewTableBackend(ktbl, true), 16, false))
		ktbl.Close()
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
	e.printf("%-6s %12s %12s %10s\n", "bound", "off-samp/s", "on-samp/s", "speedup")
	for _, bound := range []int64{0, 4, 10, 20, 40, 80} {
		mode := train.ModeAsync
		if bound == 0 {
			mode = train.ModeSync
		}
		var thr [2]float64
		for i, la := range []int{0, 32} {
			tbl, err := e.mlkvTable("fig9a", e.Scale.Dim, bound, bufKB, e.Scale.CTRCard*uint64(e.Scale.CTRFields), e.ctrInit())
			if err != nil {
				return err
			}
			res, err := train.TrainCTR(e.ctrOpts(train.NewTableBackend(tbl, la > 0), mode, la))
			tbl.Close()
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
	variants := []struct {
		name  string
		bound int64
		la    int
		beta  bool
	}{
		{"mlkv", 8, 16, false},
		{"faster", core.BoundDisabled, 0, false},
		{"mlkv-beta", 8, 16, true},
		{"faster-beta", core.BoundDisabled, 0, true},
	}
	for _, v := range variants {
		e.printf("%-16s", v.name)
		for _, kb := range e.Scale.BufferKBs {
			tbl, err := e.mlkvTable("fig9b", e.Scale.Dim, v.bound, kb, e.Scale.KGEntities, e.kgeInit())
			if err != nil {
				return err
			}
			res, err := train.TrainKGE(e.kgeOpts(train.NewTableBackend(tbl, v.la > 0), v.la, v.beta))
			tbl.Close()
			if err != nil {
				return err
			}
			e.printf(" %11.0f", res.Throughput)
		}
		e.printf("\n")
	}
	return nil
}

// Fig10 reproduces Figure 10: YCSB (50/50 read-write) throughput, MLKV vs
// FASTER, across buffer sizes, thread counts, and value sizes, under
// uniform and zipfian access. Expected: MLKV within 10% (uniform) / 20%
// (zipfian) of FASTER.
func (e *Env) Fig10() error {
	e.printf("== Figure 10: YCSB throughput, MLKV vs FASTER ==\n")
	run := func(bound int64, bufKB, threads, vs int, dist ycsb.Distribution) (float64, error) {
		res, err := e.runYCSB("fig10", vs, ycsb.Options{
			Records: e.Scale.YCSBRecords, Threads: threads,
			ReadFraction: 0.5, Dist: dist, MaxOps: e.Scale.YCSBOps, Seed: 42,
		}, mlkv.WithStalenessBound(bound), mlkv.WithMemory(int64(bufKB)<<10))
		if err != nil {
			return 0, err
		}
		return res.Throughput, nil
	}
	vsDefault := e.Scale.ValueSizes[0]
	thDefault := e.Scale.Threads[len(e.Scale.Threads)-1]
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
		e.printf("-- %s --\n", dist)
		e.printf("%-10s %-10s %12s %12s %8s\n", "sweep", "point", "mlkv-ops/s", "faster-ops/s", "ratio")
		for _, kb := range e.Scale.BufferKBs {
			m, err := run(mlkv.ASP, kb, thDefault, vsDefault, dist)
			if err != nil {
				return err
			}
			f, err := run(mlkv.Disabled, kb, thDefault, vsDefault, dist)
			if err != nil {
				return err
			}
			e.printf("%-10s %-10s %12.0f %12.0f %8.3f\n", "buffer", fmt.Sprintf("%dKB", kb), m, f, m/f)
		}
		for _, th := range e.Scale.Threads {
			m, err := run(mlkv.ASP, e.Scale.BufferKBs[0], th, vsDefault, dist)
			if err != nil {
				return err
			}
			f, err := run(mlkv.Disabled, e.Scale.BufferKBs[0], th, vsDefault, dist)
			if err != nil {
				return err
			}
			e.printf("%-10s %-10d %12.0f %12.0f %8.3f\n", "threads", th, m, f, m/f)
		}
		for _, vs := range e.Scale.ValueSizes {
			m, err := run(mlkv.ASP, e.Scale.BufferKBs[0], thDefault, vs, dist)
			if err != nil {
				return err
			}
			f, err := run(mlkv.Disabled, e.Scale.BufferKBs[0], thDefault, vs, dist)
			if err != nil {
				return err
			}
			e.printf("%-10s %-10d %12.0f %12.0f %8.3f\n", "valsize", vs, m, f, m/f)
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
	// DDP: everything in memory across 2 instances, paying a per-batch
	// gradient-exchange delay.
	ddpOpts := e.gnnOpts(train.NewMemBackend("ddp", e.Scale.Dim, e.ctrInit()), 0)
	ddpOpts.BatchSyncDelay = 2 * time.Millisecond
	ddpRes, err := train.TrainGNN(ddpOpts)
	if err != nil {
		return err
	}
	for _, name := range []string{"mlkv", "faster"} {
		e.printf("%-8s", name)
		for _, kb := range e.Scale.BufferKBs {
			bound := int64(8)
			la := 16
			if name == "faster" {
				bound = core.BoundDisabled
				la = 0
			}
			tbl, err := e.mlkvTable("fig11a", e.Scale.Dim, bound, kb, e.Scale.GraphNodes, e.ctrInit())
			if err != nil {
				return err
			}
			res, err := train.TrainGNN(e.gnnOpts(train.NewTableBackend(tbl, la > 0), la))
			tbl.Close()
			if err != nil {
				return err
			}
			e.printf(" %11.0f", res.Throughput)
		}
		if name == "mlkv" {
			e.printf(" %11.0f\n", ddpRes.Throughput)
		} else {
			e.printf("\n")
		}
	}

	e.printf("== Figure 11b: Payout-like convergence, buffer small vs large ==\n")
	evalEvery := e.Scale.Duration / 5
	if evalEvery <= 0 {
		evalEvery = 100 * time.Millisecond
	}
	small, large := e.Scale.BufferKBs[0], e.Scale.BufferKBs[len(e.Scale.BufferKBs)-1]
	for _, v := range []struct {
		name  string
		bound int64
		la    int
		kb    int
	}{
		{"mlkv-small", 8, 16, small},
		{"mlkv-large", 8, 16, large},
		{"faster-small", core.BoundDisabled, 0, small},
		{"faster-large", core.BoundDisabled, 0, large},
	} {
		tbl, err := e.mlkvTable("fig11b", e.Scale.Dim, v.bound, v.kb, e.Scale.GraphNodes, e.ctrInit())
		if err != nil {
			return err
		}
		o := e.gnnOpts(train.NewTableBackend(tbl, v.la > 0), v.la)
		o.EvalEvery = evalEvery
		res, err := train.TrainGNN(o)
		tbl.Close()
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
	db, err := mlkv.Connect(e.dir(tag))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	m, err := db.Open("ycsb", vs/4, append(opts, mlkv.WithExpectedKeys(o.Records))...)
	if err != nil {
		return nil, err
	}
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
