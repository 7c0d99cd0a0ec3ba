package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envelope is a set of repeat runs with the environment they ran in: the
// committed form of a measurement (results/baseline-*.json).
type envelope struct {
	Commit      string  `json:"commit"`
	Go          string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	Kernel      string  `json:"kernel"`
	FS          string  `json:"fs"` // of the work directory
	FlushPolicy string  `json:"flush_policy"`
	Seed        uint64  `json:"seed"`
	Scale       int     `json:"scale"`
	Seconds     float64 `json:"seconds"`
	Runs        int     `json:"runs"`

	Workloads map[string]*envWorkload `json:"workloads"`
}

type envWorkload struct {
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	EndToEnd  map[string]*envMetric `json:"end_to_end"`
	// One traced run: the per-layer metrics and the waterfall.
	PerLayer  map[string]metric `json:"per_layer"`
	Waterfall []string          `json:"waterfall"`
	AUC       []float64         `json:"auc,omitempty"`
}

type envMetric struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func (m *envMetric) add(v float64) {
	m.Values = append(m.Values, v)
	m.Median, m.Min, m.Max = median(m.Values), slices.Min(m.Values), slices.Max(m.Values)
}

// spread is the range of the runs as a share of their median.
func (m *envMetric) spread() float64 { return ratio(m.Max-m.Min, m.Median) }

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
}

func newEnvelope(env *env, runs int, seed uint64, d time.Duration) *envelope {
	e := &envelope{
		Commit: "unknown", Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		FlushPolicy: "no fsync, unpaced flusher (mlkv-server without -sync/-flush-pace, no WithFlushPace)",
		Seed:        seed, Scale: scale * env.div, Seconds: d.Seconds(), Runs: runs,
		Workloads: map[string]*envWorkload{},
	}
	// Outside a git work tree (the driver's checkout) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(env.workDir, &st); err == nil {
		name, ok := fsNames[int64(st.Type)]
		if !ok {
			name = fmt.Sprintf("0x%x", st.Type)
		}
		e.FS = name
	}
	return e
}

// runChild runs one workload once in a process of its own, exactly as
// the driver does (peak_rss_mb of a process that has already run another
// workload is not that workload's), and reads its result line and detail.
func runChild(env *env, sp *spec, seed uint64, d time.Duration, traced bool) (*result, error) {
	detailPath := filepath.Join(env.workDir, "detail.json")
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", sp.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(d.Seconds(), 'f', -1, 64), "-trace", trace,
		"-server-bin", env.serverBin, "-work", env.workDir, "-div", strconv.Itoa(env.div), "-detail", detailPath)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &result{Workload: sp.name, Seed: seed, Detail: &detail{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	raw, err := os.ReadFile(detailPath)
	if err == nil {
		err = json.Unmarshal(raw, res.Detail)
	}
	return res, err
}

// runEnvelope runs every workload runs times with tracing off, then once
// traced, and writes the envelope to out.
func runEnvelope(env *env, runs int, seed uint64, d time.Duration, out string) error {
	e := newEnvelope(env, runs, seed, d)
	for _, sp := range specs {
		e.Workloads[sp.name] = &envWorkload{EndToEnd: map[string]*envMetric{}}
	}
	for i := 0; i < runs; i++ {
		for _, sp := range specs {
			res, err := runChild(env, sp, seed, d, false)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.name, i, err)
			}
			w := e.Workloads[sp.name]
			w.Attempted += res.Attempted
			w.Failed += res.Failed
			if sp.dlrm {
				w.AUC = append(w.AUC, res.Detail.AUC)
			}
			for name, m := range res.Metrics {
				em := w.EndToEnd[name]
				if em == nil {
					em = &envMetric{Unit: m.Unit}
					w.EndToEnd[name] = em
				}
				em.add(m.Value)
			}
		}
	}
	for _, sp := range specs {
		res, err := runChild(env, sp, seed, d, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", sp.name, err)
		}
		w := e.Workloads[sp.name]
		w.Attempted += res.Attempted
		w.Failed += res.Failed
		w.PerLayer, w.Waterfall = res.Metrics, res.Detail.Waterfall
	}
	return writeJSON(out, e)
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// envelopes and returns the exit code: 1 if anything regressed or the
// failed share rose, 2 if a file cannot be read.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	var a, b envelope
	for _, f := range []struct {
		path string
		e    *envelope
	}{{oldPath, &a}, {newPath, &b}} {
		raw, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(raw, f.e)
		}
		if err != nil {
			fmt.Fprintf(w, "compare: %s: %v\n", f.path, err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %18s %6s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old (base old)", "bound", "spread", "verdict")
	for _, sp := range specs {
		wa, wb := a.Workloads[sp.name], b.Workloads[sp.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-16s missing from one side\n", sp.name)
			code = 1
			continue
		}
		for _, def := range endToEnd {
			ma, mb := wa.EndToEnd[def.name], wb.EndToEnd[def.name]
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "%-16s %-12s missing from one side\n", sp.name, def.name)
				code = 1
				continue
			}
			v := verdict(def, ma, mb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-12s %14.4f %14.4f %18.4f %5.0f%% %6.1f%%  %s\n", sp.name, def.name,
				ma.Median, mb.Median, ratio(mb.Median, ma.Median), 100*def.bound, 100*max(ma.spread(), mb.spread()), v)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		v := "within"
		if fb > fa {
			v, code = "regressed", 1
		}
		fmt.Fprintf(w, "%-16s %-12s %14.6f %14.6f %18s %6s %7s  %s\n", sp.name, "failed_share", fa, fb, "", "0%", "", v)
	}
	return code
}

// verdict classes the change from a to b: gain is its size in the
// metric's better direction, as a share of a's median. A change is only
// called when it is larger than the runs' own spread; a spread wider
// than the bound leaves the pair unresolved, not unchanged.
func verdict(def metricDef, a, b *envMetric) string {
	gain := ratio(b.Median-a.Median, a.Median)
	if def.better == "lower" {
		gain = -gain
	}
	spread := max(a.spread(), b.spread())
	switch {
	case gain < -def.bound && -gain > spread:
		return "regressed"
	case gain < -def.bound || spread > def.bound:
		return "unresolved"
	case gain > spread:
		return "improved"
	}
	return "within"
}
