package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
)

// rung is one public entry point at which a workload's op trace is
// replayed, lowest first. A layer's self time is the difference between
// adjacent rungs.
type rung struct {
	name   string
	engine bool       // kv.OpenEngine, else wire or a target
	wire   bool       // codec only, no store
	opts   targetOpts // target rungs (and shards of the engine rung)
}

// ladder lists the rungs up to the workload's own target.
func (sp *spec) ladder() []rung {
	l := []rung{{name: "engine1", engine: true, opts: targetOpts{shards: 1}}}
	if sp.shards > 1 {
		l = append(l, rung{name: fmt.Sprintf("engine%d", sp.shards), engine: true, opts: targetOpts{shards: sp.shards}})
	}
	if sp.target != targetLocal {
		l = append(l, rung{name: "wire", wire: true})
	}
	l = append(l, rung{name: "local", opts: targetOpts{kind: targetLocal, shards: sp.shards}})
	if sp.cache > 0 {
		l = append(l, rung{name: "local+cache", opts: targetOpts{kind: targetLocal, shards: sp.shards, cache: sp.cache}})
	}
	if sp.target >= targetLoopback {
		l = append(l, rung{name: "loopback", opts: targetOpts{kind: targetLoopback, shards: sp.shards, cache: sp.cache}})
	}
	if sp.target == targetCluster {
		l = append(l, rung{name: "cluster", opts: targetOpts{kind: targetCluster, shards: sp.shards, cache: sp.cache}})
	}
	return l
}

// rungResult is what one replay measured.
type rungResult struct {
	name                  string
	calls                 int
	units                 int             // calls, or trainer steps
	unitUs                float64         // mean time per unit
	readKeyUs, writeKeyUs float64         // mean per key of the read and the write calls
	p50Us                 [opStep]float64 // median call of each kind
	frames, bytes, nkeys  int64           // wire rung
	nodes                 []nodeVars
	attempted, failed     int64
}

// nodeVars is what one server's /debug/vars says about the model.
type nodeVars struct {
	Puts, BatchGets, BatchPuts int64
	Errors                     int64
	storeP50us, storeP99us     float64 // count-weighted over op classes
	lat                        map[string]opLat
}

// opLat is one op class of a server's mlkv_latency: the store calls it
// timed itself.
type opLat struct {
	Count        int64
	P50us, P99us float64
}

func readVars(s *serverProc) (nodeVars, error) {
	var nv nodeVars
	raw, err := s.vars()
	if err != nil {
		return nv, err
	}
	var models map[string]struct{ Puts, BatchGets, BatchPuts int64 }
	var srv struct{ Errors int64 }
	var lat map[string]map[string]opLat
	for name, dst := range map[string]any{"mlkv_models": &models, "mlkv_server": &srv, "mlkv_latency": &lat} {
		if err := json.Unmarshal(raw[name], dst); err != nil {
			return nv, fmt.Errorf("/debug/vars %s of %s: %w", name, s.addr, err)
		}
	}
	m := models[modelID]
	nv.Puts, nv.BatchGets, nv.BatchPuts, nv.Errors = m.Puts, m.BatchGets, m.BatchPuts, srv.Errors
	nv.lat = lat[modelID]
	var n int64
	for _, c := range nv.lat {
		nv.storeP50us += c.P50us * float64(c.Count)
		nv.storeP99us += c.P99us * float64(c.Count)
		n += c.Count
	}
	if n > 0 {
		nv.storeP50us /= float64(n)
		nv.storeP99us /= float64(n)
	}
	return nv, nil
}

// touchAll reads and writes back every key through s: on a target it is
// the first-touch initialisation of the whole table, on the engine rung
// (no initialiser) it stores zero vectors of the same size.
func touchAll(s kvSession, n, dim int) error {
	const chunk = 2048
	keys := make([]uint64, chunk)
	vals := make([]float32, chunk*dim)
	for lo := 0; lo < n; lo += chunk {
		m := min(chunk, n-lo)
		for j := range keys[:m] {
			keys[j] = uint64(lo + j)
		}
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		err := s.GetBatch(ctx, keys[:m], vals[:m*dim])
		if err == nil {
			err = s.PutBatch(ctx, keys[:m], vals[:m*dim])
		}
		cancel()
		if err != nil {
			return fmt.Errorf("touch embeddings %d..%d: %w", lo, lo+m, err)
		}
	}
	return nil
}

// replayAt opens the rung, loads it as the workload's set-up does,
// replays trace on one session with a span per call, and closes it.
func replayAt(env *env, sp *spec, r rung, trace *stream, rec *recorder) (rr rungResult, err error) {
	rr.name = r.name
	n := trace.len()
	dir := filepath.Join(env.workDir, sp.name+"-rung-"+r.name)
	if err := os.RemoveAll(dir); err != nil {
		return rr, err
	}
	defer os.RemoveAll(dir)

	var (
		sess kvSession
		ws   *wireSession
		t    *target
	)
	switch {
	case r.engine:
		st, err := openEngine(sp, dir, r.opts.shards)
		if err != nil {
			return rr, err
		}
		defer st.Close()
		ks, err := st.NewSession()
		if err != nil {
			return rr, err
		}
		sess = &engineSession{s: ks, vs: sp.dim * 4}
	case r.wire:
		ws = newWireSession(sp.dim)
		sess = ws
	default:
		if t, err = openTarget(env, sp, dir, r.opts); err != nil {
			return rr, err
		}
		defer t.close() //nolint:errcheck // a replay target holds nothing worth checking at close
		ms, err := t.model.NewSession()
		if err != nil {
			return rr, err
		}
		sess = apiSession{ms}
	}
	l := newOpLoop(sess, trace, sp.dim, !sp.dlrm)
	defer l.close()
	if !r.wire {
		if sp.dlrm {
			err = touchAll(sess, sp.records, sp.dim)
		} else {
			err = loadRecords(sess, sp.records, sp.dim)
		}
		if err != nil {
			return rr, err
		}
	}
	l.rec, l.tag, l.start = rec, r.name, time.Now()
	first := len(rec.spans)
	l.runOps(n)
	rr.attempted, rr.failed = l.attempted, l.failed
	if l.failed > 0 {
		return rr, fmt.Errorf("rung %s: %d of %d replayed ops failed, first: %v", r.name, l.failed, l.attempted, l.firstErr)
	}

	// A unit is a call, or for a trainer trace a whole step (its hints,
	// its gather and its scatter), which is what the trainer waits for.
	var byKind [opStep][]int64
	var totalNs, readNs, writeNs, readKeys, writeKeys int64
	for _, s := range rec.spans[first:] {
		d := s.end - s.start
		totalNs += d
		k := int64(trace.keysOf(s.op))
		switch s.kind {
		case opGet, opGetBatch:
			readNs, readKeys = readNs+d, readKeys+k
		case opPut, opPutBatch, opRMW:
			writeNs, writeKeys = writeNs+d, writeKeys+k
		}
		byKind[s.kind] = append(byKind[s.kind], d)
	}
	rr.calls, rr.units = n, n
	if sp.dlrm {
		rr.units = count(trace, opPutBatch)
	}
	rr.unitUs = ratio(float64(totalNs)/1e3, float64(rr.units))
	for k, d := range byKind {
		slices.Sort(d)
		rr.p50Us[k] = pctUs(d, 50)
	}
	if readKeys > 0 {
		rr.readKeyUs = float64(readNs) / float64(readKeys) / 1e3
	}
	if writeKeys > 0 {
		rr.writeKeyUs = float64(writeNs) / float64(writeKeys) / 1e3
	}
	if ws != nil {
		rr.frames, rr.bytes, rr.nkeys = ws.frames, ws.bytes, ws.nkeys
	}
	if t != nil {
		for _, s := range t.servers {
			nv, err := readVars(s)
			if err != nil {
				return rr, err
			}
			rr.nodes = append(rr.nodes, nv)
		}
	}
	return rr, nil
}

// statsDelta subtracts the counters the per-layer metrics use.
func statsDelta(a, b mlkv.Stats) mlkv.Stats {
	return mlkv.Stats{
		Gets: b.Gets - a.Gets, Puts: b.Puts - a.Puts, RMWs: b.RMWs - a.RMWs,
		DiskReads: b.DiskReads - a.DiskReads, MemHits: b.MemHits - a.MemHits,
		StalenessWaits: b.StalenessWaits - a.StalenessWaits,
		InPlaceUpdates: b.InPlaceUpdates - a.InPlaceUpdates, RCUAppends: b.RCUAppends - a.RCUAppends,
		PrefetchCopies: b.PrefetchCopies - a.PrefetchCopies, PrefetchDropped: b.PrefetchDropped - a.PrefetchDropped,
		LookaheadCalls: b.LookaheadCalls - a.LookaheadCalls,
		CacheHits:      b.CacheHits - a.CacheHits, CacheMisses: b.CacheMisses - a.CacheMisses,
		CacheEvictions: b.CacheEvictions - a.CacheEvictions,
		BytesFlushed:   b.BytesFlushed - a.BytesFlushed, GroupCommits: b.GroupCommits - a.GroupCommits,
		ClusterRedirects: b.ClusterRedirects - a.ClusterRedirects, DialRetries: b.DialRetries - a.DialRetries,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is a --trace 1 run. It sets the workload up once, drives it
// for d/2 with tracing off and d/2 with a span per call, then replays
// the op trace at every rung of the ladder and derives the per-layer
// metrics. trace.jsonl in the work directory gets every span.
func runTraced(env *env, sp *spec, seed uint64, d time.Duration) (*result, error) {
	w := newWorkload(env, sp, seed)
	sp = w.sp
	res := &result{Correct: true, Workload: sp.name, Seed: seed, Detail: &detail{}, Metrics: map[string]metric{}}
	m := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	for _, pl := range perLayer {
		m(pl.name, 0, pl.unit) // every metric is always reported; 0 = does not apply here
	}

	dir := filepath.Join(env.workDir, sp.name+"-traced")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t, loops, err := w.ready(dir)
	if err != nil {
		return nil, err
	}
	s0, err := modelStats(t.model)
	if err != nil {
		t.close() //nolint:errcheck
		return nil, err
	}
	rec := newRecorder(1 << 20)
	half := d / 2
	win, nWin := windowsOf(half)
	var passes [2]summary
	var harnessKB int64
	resetPeakRSS()
	for i, r := range []*recorder{nil, rec} {
		sers, err := w.drive(t, loops, half, win, r, res)
		if err != nil {
			t.close() //nolint:errcheck
			return nil, err
		}
		if r == nil {
			harnessKB = hwmKB(os.Getpid())
		}
		passes[i] = summarise(sers, nWin)
	}
	for _, l := range loops {
		l.close()
	}
	untraced, traced := passes[0], passes[1]
	res.Detail.Summary = untraced
	s1, err := modelStats(t.model)
	if err != nil {
		t.close() //nolint:errcheck
		return nil, err
	}
	ds := statsDelta(s0, s1)
	res.Detail.Stats = ds
	var own []nodeVars // the workload's own servers
	for _, s := range t.servers {
		nv, err := readVars(s)
		if err != nil {
			t.close() //nolint:errcheck
			return nil, err
		}
		own = append(own, nv)
	}
	rb, err := readBack(env, sp, t, seed)
	res.Attempted += rb.attempted
	if err != nil {
		res.fail(1, "read-back: %v", err)
	} else if rb.failed > 0 {
		res.fail(rb.failed, "%d of %d keys read back wrong", rb.failed, rb.attempted)
	}
	res.Detail.ReopenStale = rb.stale

	// The trace to replay: the first session's stream, or the calls the
	// first trainer worker made during the traced pass.
	var trace *stream
	if sp.dlrm {
		trace = w.lastBackend.handles[0].trace
	} else {
		trace = w.streams[0]
	}
	replayed := trace.prefix(sp.rungOps)
	n := replayed.len()
	rungs := map[string]rungResult{}
	var order []string
	for _, r := range sp.ladder() {
		rr, err := replayAt(env, sp, r, replayed, rec)
		res.Attempted += rr.attempted
		if err != nil {
			return nil, err
		}
		rungs[r.name] = rr
		order = append(order, r.name)
	}
	if err := rec.writeJSONL(filepath.Join(env.workDir, "trace-"+sp.name+".jsonl")); err != nil {
		return nil, err
	}

	// --- per-layer metrics ---
	vs := float64(sp.dim * 4)
	m("read_p99_us", untraced.Read.P99us, "us")
	m("write_p50_us", untraced.Write.P50us, "us")
	m("write_p99_us", untraced.Write.P99us, "us")
	m("peak_rss_mb", float64(harnessKB+rb.serverKB)/1024, "MiB")
	m("trace.overhead_share", 1-ratio(traced.UnitsPerSec, untraced.UnitsPerSec), "ratio")

	m("core.staleness_waits", float64(ds.StalenessWaits), "count")
	m("core.prefetch_useful", ratio(float64(ds.PrefetchCopies), float64(ds.LookaheadCalls)*float64(sp.fields)), "ratio")
	m("core.prefetch_dropped", float64(ds.PrefetchDropped), "count")
	m("hotcache.hit_ratio", ratio(float64(ds.CacheHits), float64(ds.CacheHits+ds.CacheMisses)), "ratio")
	m("hotcache.evictions", float64(ds.CacheEvictions), "count")
	m("faster.mem_hit_ratio", ratio(float64(ds.MemHits), float64(ds.MemHits+ds.DiskReads)), "ratio")
	m("faster.disk_reads_per_kkey", 1000*ratio(float64(ds.DiskReads), float64(ds.MemHits+ds.DiskReads)), "count")
	m("faster.write_amp", ratio(float64(ds.BytesFlushed), float64(ds.Puts+ds.RMWs)*vs), "ratio")
	m("faster.rcu_share", ratio(float64(ds.RCUAppends), float64(ds.RCUAppends+ds.InPlaceUpdates)), "ratio")
	m("faster.group_commits", float64(ds.GroupCommits), "count")
	m("faster.reopen_stale_keys", float64(rb.stale), "count")
	m("client.dial_retries", float64(ds.DialRetries), "count")
	m("cluster.redirects", float64(ds.ClusterRedirects), "count")
	var errs int64
	for _, nv := range own {
		errs += nv.Errors
	}
	m("server.errors", float64(errs), "count")

	e1 := rungs["engine1"]
	m("faster.us_per_key_read", e1.readKeyUs, "us")
	m("faster.us_per_key_write", e1.writeKeyUs, "us")
	eS := e1
	if sp.shards > 1 {
		eS = rungs[fmt.Sprintf("engine%d", sp.shards)]
		m("kv.shard4_over_shard1", ratio(eS.unitUs, e1.unitUs), "ratio")
	}
	local := rungs["local"]
	m("api.self_us_per_call", local.unitUs-eS.unitUs, "us")
	topLocal := local
	if c, ok := rungs["local+cache"]; ok {
		m("hotcache.saved_us_per_call", local.unitUs-c.unitUs, "us")
		topLocal = c
	}
	if wr, ok := rungs["wire"]; ok {
		m("wire.codec_us_per_frame", ratio(wr.unitUs*float64(wr.units), float64(wr.frames)), "us")
		m("wire.bytes_per_key", ratio(float64(wr.bytes), float64(wr.nkeys)), "B")
		m("wire.frames_per_step", ratio(float64(wr.frames), float64(wr.units)), "count")
	}
	if lb, ok := rungs["loopback"]; ok {
		nv := lb.nodes[0]
		m("serve.overhead_us_per_call", lb.unitUs-topLocal.unitUs, "us")
		m("server.store_call_p50_us", nv.storeP50us, "us")
		m("server.store_call_p99_us", nv.storeP99us, "us")
		// Per op class the server times: the client's median round trip
		// minus the server's median store call minus the codec's median,
		// weighted by the server's call counts.
		var queue, calls float64
		for kind := opGet; kind <= opPutBatch; kind++ {
			if c, ok := nv.lat[opNames[kind]]; ok && kind != opRMW && lb.p50Us[kind] > 0 {
				queue += float64(c.Count) * (lb.p50Us[kind] - c.P50us - rungs["wire"].p50Us[kind])
				calls += float64(c.Count)
			}
		}
		m("client.queue_wire_us", ratio(queue, calls), "us")
		if cl, ok := rungs["cluster"]; ok {
			m("cluster.overhead_us_per_call", cl.unitUs-lb.unitUs, "us")
			gets := count(replayed, opGetBatch)
			m("cluster.owners_per_batch", ratio(float64(cl.nodes[0].BatchGets+cl.nodes[1].BatchGets), float64(gets)), "ratio")
		}
	}
	if len(own) == 3 {
		// Over the whole traced run of the workload's own cluster.
		m("cluster.replica_applied", ratio(float64(own[2].Puts), float64(own[0].Puts)), "ratio")
	}

	// The trainer's layer, from the traced TrainCTR pass.
	if sp.dlrm {
		tr := w.lastTrain
		steps := float64(len(rec.durs("train", opStep)))
		var storage int64
		for _, d := range rec.durs("train", opGetBatch, opPutBatch) {
			storage += d
		}
		m("train.samples_per_s", untraced.UnitsPerSec/float64(sp.fields*2), "samples/s")
		m("train.emb_share", ratio(float64(tr.Stage.Emb), float64(tr.Stage.Total())), "ratio")
		m("train.stall_p50_us", float64(tr.EmbLat.P50)/1e3, "us")
		m("train.stall_p99_us", float64(tr.EmbLat.P99)/1e3, "us")
		m("train.gather_self_us_per_step", ratio(float64(int64(tr.Stage.Emb)-storage)/1e3, steps), "us")
		m("train.compute_us_per_sample", ratio(float64(tr.Stage.Forward+tr.Stage.Backward)/1e3, float64(tr.Samples)), "us")
		var gathered, gathers int
		for i, k := range replayed.kind {
			if k == opGetBatch {
				gathered, gathers = gathered+len(replayed.batch[i]), gathers+1
			}
		}
		m("train.unique_keys_per_step", ratio(float64(gathered), float64(gathers)), "keys")
	}

	// --- the waterfall ---
	top := rungs[order[len(order)-1]]
	callUs := ratio(float64(untraced.Read.Count)*untraced.Read.MeanUs+float64(untraced.Write.Count)*untraced.Write.MeanUs,
		float64(untraced.Read.Count+untraced.Write.Count))
	wf := &res.Detail.Waterfall
	add := func(format string, args ...any) { *wf = append(*wf, fmt.Sprintf(format, args...)) }
	unit := "call"
	if sp.dlrm {
		unit = "trainer step"
	}
	add("waterfall, mean us per replayed %s (%d calls in %d units, one session, same trace at every rung):", unit, n, top.units)
	prev := 0.0
	for _, name := range order {
		rr := rungs[name]
		if name == "wire" {
			add("  %-12s %10.2f   (codec only; part of loopback's step, not added)", name, rr.unitUs)
			continue
		}
		add("  %-12s %10.2f   self %+10.2f", name, rr.unitUs, rr.unitUs-prev)
		prev = rr.unitUs
	}
	add("  %-12s %10.2f   = sum of the self times above", "top rung", top.unitUs)
	if sp.dlrm {
		// What the two workers' steps spent in storage calls, traced pass.
		steps := rec.durs("train", opStep)
		var children int64
		for _, d := range rec.durs("train", opGetBatch, opPutBatch, opLookahead) {
			children += d
		}
		callUs = ratio(float64(children)/1e3, float64(len(steps)))
		step := meanUs(steps)
		add("  %-12s %10.2f   = storage calls %.2f + trainer self %.2f (sampling, dedup, forward, backward, apply)", "train step", step, callUs, step-callUs)
	}
	add("  %-12s %10.2f   residual %+.2f (the workload itself: %d sessions, its own store state)", "workload", callUs, callUs-top.unitUs, sp.sessions)
	m("trace.residual_us_per_call", callUs-top.unitUs, "us")
	add("  tracing overhead: %.0f/s untraced vs %.0f/s traced = %.2f%%", untraced.UnitsPerSec, traced.UnitsPerSec, 100*(1-ratio(traced.UnitsPerSec, untraced.UnitsPerSec)))
	return res, nil
}

func count(st *stream, kind uint8) int {
	n := 0
	for _, k := range st.kind {
		if k == kind {
			n++
		}
	}
	return n
}
