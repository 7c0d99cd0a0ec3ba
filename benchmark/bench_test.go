package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var testEnv *env

// TestMain builds mlkv-server once; the smoke tests drive it as the
// benchmark does, so a refactor that breaks a pinned symbol or a server
// flag fails here and not in the driver.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mlkv-benchmark-test-*")
	if err != nil {
		panic(err)
	}
	bin, err := buildServer(dir)
	if err != nil {
		os.RemoveAll(dir)
		panic(err)
	}
	testEnv = &env{serverBin: bin, workDir: dir, div: 200}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs all four workloads end to end and traced at 1/200 of
// the benchmark's size, and the compare path over the results.
func TestSmoke(t *testing.T) {
	const d = 400 * time.Millisecond
	e := newEnvelope(testEnv, 1, 1, d)
	for _, sp := range specs {
		res, err := runEndToEnd(testEnv, sp, 1, d)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d notes=%v", sp.name, res.Correct, res.Failed, res.Attempted, res.Notes)
		}
		w := &envWorkload{Attempted: res.Attempted, EndToEnd: map[string]*envMetric{}}
		for _, def := range endToEnd {
			m, ok := res.Metrics[def.name]
			if !ok || m.Value <= 0 || m.Unit != def.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive %s", sp.name, def.name, m, def.unit)
			}
			w.EndToEnd[def.name] = &envMetric{Unit: m.Unit}
			w.EndToEnd[def.name].add(m.Value)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, contract lists %d", sp.name, len(res.Metrics), len(endToEnd))
		}
		e.Workloads[sp.name] = w

		tr, err := runTraced(testEnv, sp, 1, d)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !tr.Correct || tr.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d notes=%v", sp.name, tr.Correct, tr.Failed, tr.Notes)
		}
		for _, def := range perLayer {
			if m, ok := tr.Metrics[def.name]; !ok || m.Unit != def.unit {
				t.Errorf("%s traced: per-layer metric %s = %+v, want unit %s", sp.name, def.name, m, def.unit)
			}
		}
		if len(tr.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics reported, contract lists %d", sp.name, len(tr.Metrics), len(perLayer))
		}
		if len(tr.Detail.Waterfall) < 4 {
			t.Errorf("%s traced: waterfall %q", sp.name, tr.Detail.Waterfall)
		}
		if _, err := os.Stat(filepath.Join(testEnv.workDir, "trace-"+sp.name+".jsonl")); err != nil {
			t.Errorf("%s traced: %v", sp.name, err)
		}
	}

	// Compare: a set against itself is within; the same set with half the
	// throughput has regressed.
	oldPath, newPath := filepath.Join(t.TempDir(), "a.json"), filepath.Join(t.TempDir(), "b.json")
	if err := writeJSON(oldPath, e); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareFiles(&out, oldPath, oldPath); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("self-compare: exit %d\n%s", code, out.String())
	}
	m := e.Workloads[specs[0].name].EndToEnd["keys_per_s"]
	m.Median, m.Min, m.Max = m.Median/2, m.Min/2, m.Max/2
	if err := writeJSON(newPath, e); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := compareFiles(&out, oldPath, newPath); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("compare with halved keys_per_s: exit %d\n%s", code, out.String())
	}
}

// nopSession answers every call at once.
type nopSession struct{}

func (nopSession) Get(context.Context, uint64, []float32) error          { return nil }
func (nopSession) GetBatch(context.Context, []uint64, []float32) error   { return nil }
func (nopSession) Put(context.Context, uint64, []float32) error          { return nil }
func (nopSession) PutBatch(context.Context, []uint64, []float32) error   { return nil }
func (nopSession) RMW(context.Context, uint64, []float32, float32) error { return nil }
func (nopSession) Lookahead([]uint64) error                              { return nil }
func (nopSession) Close()                                                {}

// TestTimedLoopDoesNotAllocate holds the generator-hygiene rule: the
// body of the timed loop — issue the op, time it, file the sample —
// allocates nothing, for every op kind of the kv_* streams. (A map-per-op
// generator once put a constant GC stall into the read tail.)
func TestTimedLoopDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"kv_read_hot", "kv_mixed_remote"} {
		sp := specByName(name).scaled(200)
		st := genKVStream(sp, 1, 0)
		l := newOpLoop(nopSession{}, st, sp.dim, false)
		l.ser, l.start = newSeries(time.Minute, time.Second), time.Now()
		allocs := testing.AllocsPerRun(4*deadlineEvery, func() { l.next() })
		l.close()
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per op in the timed loop, want 0", name, allocs)
		}
	}
}

func TestValueBelongs(t *testing.T) {
	v := make([]float32, 16)
	fillValue(v, 12345, 7)
	if !valueBelongs(v, 12345) {
		t.Error("a fresh value does not belong to its key")
	}
	for i := 2; i < len(v); i++ {
		v[i] -= 3 // three RMWs
	}
	if !valueBelongs(v, 12345) {
		t.Error("a value after three RMWs does not belong to its key")
	}
	if valueBelongs(v, 12346) {
		t.Error("a value belongs to another key")
	}
	v[5]++
	if valueBelongs(v, 12345) {
		t.Error("a torn value passes")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the index the driver reads, in
// step with the lists the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var b struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, program has %d", len(b.Workloads), len(specs))
	}
	for i, sp := range specs {
		if got := b.Workloads[i]; got.Name != sp.name || got.Why != sp.why {
			t.Errorf("workload %d: %+v, program has %s: %s", i, got, sp.name, sp.why)
		}
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", sp.name, len(sp.why))
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better || g.Bound != def.bound {
				t.Errorf("%s %d: %+v, program has %+v", kind, i, g, def)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
