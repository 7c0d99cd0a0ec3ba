package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/train"
)

// env is what a run needs from its surroundings.
type env struct {
	serverBin string // built mlkv-server
	workDir   string // data dirs, server logs and trace.jsonl live here
	div       int    // extra size divisor (smoke test); 1 = the benchmark

	mu      sync.Mutex
	running map[*serverProc]struct{} // servers not yet reaped
}

// track notes a server as started or reaped.
func (e *env) track(s *serverProc, running bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running == nil {
		e.running = map[*serverProc]struct{}{}
	}
	if running {
		e.running[s] = struct{}{}
	} else {
		delete(e.running, s)
	}
}

// killServers kills every server still running and waits for each to
// end; the wall-clock guard's last act.
func (e *env) killServers() {
	e.mu.Lock()
	var procs []*serverProc
	for s := range e.running {
		procs = append(procs, s)
	}
	e.mu.Unlock()
	for _, s := range procs {
		s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-s.done
	}
}

// setupRepeats is how often a run sets the workload up; setup_s is the
// median, and the last set-up is the one that gets measured.
const setupRepeats = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The first four fields are the
// driver's contract; the rest is for people.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string   `json:"-"`
	Seed     uint64   `json:"-"`
	Notes    []string `json:"-"` // why Correct is false, first errors
	Detail   *detail  `json:"-"`
}

// detail is what a run knows beyond its gated metrics.
type detail struct {
	Summary  summary    `json:"summary"`
	SetupS   []float64  `json:"setup_s"`
	DiskMB   []float64  `json:"disk_mb"`
	Stats    mlkv.Stats `json:"stats"`
	AUC      float64    `json:"auc,omitempty"`
	Samples  int64      `json:"samples,omitempty"`
	EmbShare float64    `json:"emb_share,omitempty"`
	// PeakRSSMB: VmHWM of the harness over the timed section plus that of
	// every server of the measured set-up.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// ReopenStale: sampled keys that read differently after checkpoint,
	// close and reopen (see readBackResult.stale).
	ReopenStale int64    `json:"reopen_stale_keys"`
	Waterfall   []string `json:"waterfall,omitempty"`
}

// fail counts n failed checks or ops and keeps the first few reasons.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Correct = false
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// workload is a spec bound to a seed: the generated inputs and the two
// things that differ between kv_* and dlrm_* — how a target is made
// ready, and how it is driven for a while.
type workload struct {
	env     *env
	sp      *spec
	seed    uint64
	streams []*stream // kv_*
	task    *dlrmTask // dlrm_*: rebuilt by every set-up

	// dlrm_*: the last drive's trainer result and backend wrapper, for
	// the traced pass.
	lastTrain   *train.Result
	lastBackend *timedBackend
}

func newWorkload(env *env, sp *spec, seed uint64) *workload {
	w := &workload{env: env, sp: sp.scaled(env.div), seed: seed}
	if !w.sp.dlrm {
		for i := 0; i < w.sp.sessions; i++ {
			w.streams = append(w.streams, genKVStream(w.sp, seed, i))
		}
	}
	return w
}

// ready opens the workload's target under dir and sets it up. For kv_*
// it returns the op loops, positioned after the warm-up.
func (w *workload) ready(dir string) (*target, []*opLoop, error) {
	t, err := openTarget(w.env, w.sp, dir, w.sp.opts())
	if err != nil {
		return nil, nil, err
	}
	var loops []*opLoop
	if w.sp.dlrm {
		w.task = newDLRMTask(w.sp, w.seed)
		err = setupDLRM(w.task, t)
	} else {
		loops, err = setupKV(w.sp, t, w.streams)
	}
	if err != nil {
		t.close() //nolint:errcheck // the set-up error is the one to report
		return nil, nil, err
	}
	return t, loops, nil
}

// drive runs the workload on a ready target for d and returns the
// callers' series; rec != nil traces it.
func (w *workload) drive(t *target, loops []*opLoop, d, win time.Duration, rec *recorder, res *result) ([]*series, error) {
	if w.sp.dlrm {
		b, tr, err := runDLRM(w.task, t, d, win, rec)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.Samples
		res.Detail.AUC, res.Detail.Samples = tr.FinalMetric, tr.Samples
		res.Detail.EmbShare = float64(tr.Stage.Emb) / float64(tr.Stage.Total())
		w.lastTrain, w.lastBackend = tr, b
		return b.series(), nil
	}
	sers := make([]*series, len(loops))
	for i, l := range loops {
		l.ser = newSeries(d, win)
		l.rec, l.tag = rec, "workload"
		l.attempted, l.failed = 0, 0
		sers[i] = l.ser
	}
	start := time.Now()
	for _, l := range loops {
		l.start = start
	}
	each(loops, func(l *opLoop) { l.runFor(d) })
	for _, l := range loops {
		res.Attempted += l.attempted
		if l.failed > 0 {
			res.fail(l.failed, "%d failed ops, first: %v", l.failed, l.firstErr)
		}
	}
	return sers, nil
}

// windowsOf splits d into whole windows.
func windowsOf(d time.Duration) (win time.Duration, n int) {
	win = min(window, d)
	return win, int(d / win)
}

// runEndToEnd is a --trace 0 run: set up setupRepeats times, measure the
// last set-up for d with tracing off, check the outputs.
func runEndToEnd(env *env, sp *spec, seed uint64, d time.Duration) (*result, error) {
	w := newWorkload(env, sp, seed)
	sp = w.sp
	res := &result{Correct: true, Workload: sp.name, Seed: seed, Detail: &detail{}, Metrics: map[string]metric{}}

	var (
		t     *target
		loops []*opLoop
	)
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(env.workDir, fmt.Sprintf("%s-setup%d", sp.name, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if t, loops, err = w.ready(dir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		res.Detail.SetupS = append(res.Detail.SetupS, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			break
		}
		// The set-ups that are not measured give the space metric: every
		// one has done the same work, so their size after a checkpoint
		// does not depend on how fast the timed section runs.
		for _, l := range loops {
			l.close()
		}
		if err := t.model.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint after set-up %d: %w", i, err)
		}
		if _, err := t.close(); err != nil {
			return nil, fmt.Errorf("close after set-up %d: %w", i, err)
		}
		n, err := t.diskBytes()
		if err != nil {
			return nil, err
		}
		res.Detail.DiskMB = append(res.Detail.DiskMB, float64(n)/(1<<20))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(t.dir)

	// The peak RSS reported is the peak from here on: what the loaded
	// target holds plus what the timed section adds. Without the reset the
	// harness's high-water mark is decided by whether the collector
	// happened to run between two set-ups.
	resetPeakRSS()
	win, nWin := windowsOf(d)
	sers, err := w.drive(t, loops, d, win, nil, res)
	if err != nil {
		t.close() //nolint:errcheck
		return nil, err
	}
	harnessKB := hwmKB(os.Getpid())
	for _, l := range loops {
		l.close()
	}
	sum := summarise(sers, nWin)
	res.Detail.Summary = sum

	st, err := modelStats(t.model)
	if err != nil {
		res.fail(1, "stats: %v", err)
	}
	res.Detail.Stats = st
	if sp.noDisk && (st.DiskReads != 0 || st.BytesFlushed != 0) {
		res.fail(1, "disk touched on an all-in-memory workload: DiskReads=%d BytesFlushed=%d", st.DiskReads, st.BytesFlushed)
	}
	if sp.dlrm {
		res.Attempted++
		if res.Detail.AUC < sp.aucFloor {
			res.fail(1, "final AUC %.4f below the floor %.3f", res.Detail.AUC, sp.aucFloor)
		}
	}

	// Read-back check; for local targets across a checkpoint and reopen.
	rb, err := readBack(env, sp, t, seed)
	res.Attempted += rb.attempted
	if err != nil {
		res.fail(1, "read-back: %v", err)
	} else if rb.failed > 0 {
		res.fail(rb.failed, "%d of %d keys read back wrong", rb.failed, rb.attempted)
	}
	res.Detail.ReopenStale = rb.stale

	res.Metrics["keys_per_s"] = metric{sum.UnitsPerSec, "keys/s"}
	res.Metrics["read_p50_us"] = metric{sum.Read.P50us, "us"}
	res.Metrics["setup_s"] = metric{median(res.Detail.SetupS), "s"}
	res.Detail.PeakRSSMB = float64(harnessKB+rb.serverKB) / 1024
	res.Metrics["disk_mb"] = metric{median(res.Detail.DiskMB), "MiB"}
	return res, nil
}

// resetPeakRSS frees the garbage of the set-ups and restarts the
// kernel's high-water mark of this process (Linux: writing 5 to
// /proc/self/clear_refs). Where that is not allowed the mark keeps
// counting from process start, which only makes peak_rss_mb noisier.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

func modelStats(m *mlkv.Model) (mlkv.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	return m.StatsCtx(ctx)
}

// readBackResult is what the read-back check found.
type readBackResult struct {
	attempted, failed int64
	// stale counts keys that exist after the reopen but read differently
	// than before it. Where the trainer used Lookahead this is reported
	// and not failed: at the commit that defined the benchmark, recovery
	// rescans the log with "later records supersede earlier ones", which
	// resurrects a prefetch copy that lost its index CAS to a newer write
	// (faster.AbandonedAppends). Everywhere else a stale key is a failure.
	stale    int64
	serverKB int64
}

// readBack peeks sampled keys and closes the target. On a local target
// it is the persistence check: checkpoint, close, reopen, and every
// sampled key must be there and read back as it read before. kv_*
// payloads must also belong to their keys.
func readBack(env *env, sp *spec, t *target, seed uint64) (rb readBackResult, err error) {
	n := min(10_000, sp.records)
	r := &rng{s: mix64(seed ^ 0x7e09e7)}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.next() % uint64(sp.records)
	}
	// peekAll reads every sampled key into dst and counts the missing.
	peekAll := func(m *mlkv.Model, dst []float32) (missing int64, err error) {
		s, err := m.NewSession()
		if err != nil {
			return 0, err
		}
		defer s.Close()
		for i, k := range keys {
			ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
			found, err := s.PeekCtx(ctx, k, dst[i*sp.dim:(i+1)*sp.dim])
			cancel()
			if err != nil {
				return 0, fmt.Errorf("peek %d: %w", k, err)
			}
			if !found {
				missing++
			}
		}
		return missing, nil
	}
	before := make([]float32, n*sp.dim)
	missing, err := peekAll(t.model, before)
	if err != nil {
		t.close() //nolint:errcheck // the peek error is the one to report
		return rb, err
	}
	rb.attempted, rb.failed = int64(n), missing
	if !sp.dlrm {
		for i, k := range keys {
			if !valueBelongs(before[i*sp.dim:(i+1)*sp.dim], k) {
				rb.failed++
			}
		}
	}
	if t.kind != targetLocal {
		rb.serverKB, err = t.close()
		return rb, err
	}
	if err = t.model.Checkpoint(); err != nil {
		t.close() //nolint:errcheck
		return rb, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err = t.close(); err != nil {
		return rb, fmt.Errorf("close before reopen: %w", err)
	}
	rt, err := openTarget(env, sp, t.dir, targetOpts{kind: targetLocal, shards: sp.shards})
	if err != nil {
		return rb, fmt.Errorf("reopen: %w", err)
	}
	defer rt.close() //nolint:errcheck // nothing was written since the checkpoint
	after := make([]float32, n*sp.dim)
	if missing, err = peekAll(rt.model, after); err != nil {
		return rb, err
	}
	rb.attempted += int64(n)
	rb.failed += missing
	for i := range keys {
		if !slices.Equal(before[i*sp.dim:(i+1)*sp.dim], after[i*sp.dim:(i+1)*sp.dim]) {
			rb.stale++
		}
	}
	if sp.lookahead == 0 {
		rb.failed += rb.stale
	}
	return rb, nil
}
