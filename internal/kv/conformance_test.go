package kv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// testConfig is the matrix's store sizing: small pages and a small
// budget, so a few hundred keys already spill to disk on every engine.
func testConfig(dir string, shards, vs int, bound int64) ShardedConfig {
	return ShardedConfig{
		Dir: dir, Shards: shards, ValueSize: vs, RecordsPerPage: 64,
		MemoryBytes: 256 << 10, ExpectedKeys: 1 << 10, StalenessBound: bound,
	}
}

// openTestStore opens a store through OpenEngine, the one constructor,
// closing it with the test.
func openTestStore(t *testing.T, engine string, shards, vs int, bound int64) Store {
	t.Helper()
	st, err := OpenEngine(engine, testConfig(t.TempDir(), shards, vs, bound), engine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return st
}

// forEachStore runs fn over the conformance matrix: engine ∈ {faster,
// lsm, bptree} × shards ∈ {1, 4}.
func forEachStore(t *testing.T, fn func(t *testing.T, engine string, shards int)) {
	for _, engine := range []string{EngineFaster, EngineLSM, EngineBPTree} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", engine, shards), func(t *testing.T) {
				fn(t, engine, shards)
			})
		}
	}
}

// TestStoreConformance drives every engine at both shard counts through
// the Store/Session contract with one operation sequence: whatever sits
// behind OpenEngine must be indistinguishable at this seam.
func TestStoreConformance(t *testing.T) {
	const vs = 16
	forEachStore(t, func(t *testing.T, engine string, shards int) {
		st := openTestStore(t, engine, shards, vs, -1)
		if st.ValueSize() != vs || st.Name() != engine || st.Shards() != shards {
			t.Fatalf("ValueSize=%d Name=%q Shards=%d", st.ValueSize(), st.Name(), st.Shards())
		}
		if st.StalenessBound() != -1 {
			t.Fatalf("StalenessBound = %d, want -1", st.StalenessBound())
		}
		s, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()

		// Scalar round trip, delete, phantom.
		val := bytes.Repeat([]byte{7}, vs)
		const n = 200
		for k := uint64(1); k <= n; k++ {
			if err := s.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]byte, vs)
		for k := uint64(1); k <= n; k++ {
			found, err := s.Get(k, dst)
			if err != nil || !found || !bytes.Equal(dst, val) {
				t.Fatalf("key %d: found=%v err=%v", k, found, err)
			}
		}
		if err := s.Delete(5); err != nil {
			t.Fatal(err)
		}
		if found, _ := s.Get(5, dst); found {
			t.Fatal("deleted key visible")
		}
		if found, err := s.Peek(5, dst); err != nil || found {
			t.Fatalf("peek of deleted key: found=%v err=%v", found, err)
		}
		if found, _ := s.Get(9999, dst); found {
			t.Fatal("phantom key")
		}
		if found, err := s.Peek(6, dst); err != nil || !found || !bytes.Equal(dst, val) {
			t.Fatalf("peek: found=%v err=%v", found, err)
		}
		if _, err := s.Prefetch(6); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lookahead([]uint64{6, 7, 9999}); err != nil {
			t.Fatal(err)
		}

		// RMW: on a present key fn sees the value, on an absent one zeros.
		bump := func(cur []byte, exists bool) bool { cur[0]++; return true }
		if err := s.RMW(6, bump); err != nil {
			t.Fatal(err)
		}
		if err := s.RMW(7777, bump); err != nil {
			t.Fatal(err)
		}
		// A declining fn stores nothing: an absent key stays absent.
		if err := s.RMW(8888, func([]byte, bool) bool { return false }); err != nil {
			t.Fatal(err)
		}
		if found, _ := s.Peek(8888, dst); found {
			t.Fatal("a declined RMW created the key")
		}
		if _, _ = s.Get(6, dst); dst[0] != 8 || dst[1] != 7 {
			t.Fatalf("RMW of present key left %v", dst[:2])
		}
		if found, _ := s.Get(7777, dst); !found || dst[0] != 1 || dst[1] != 0 {
			t.Fatalf("RMW of absent key: found=%v value %v", found, dst[:2])
		}

		// A batch across every shard round-trips, and the counters, summed
		// over shards, move by exactly its key count.
		before := st.Stats()
		keys := make([]uint64, 300)
		vals := make([]byte, len(keys)*vs)
		for i := range keys {
			keys[i] = uint64(10_000 + i*7)
			for j := 0; j < vs; j++ {
				vals[i*vs+j] = byte(i + j)
			}
		}
		if err := SessionPutBatch(s, vs, keys, vals); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(vals))
		found := make([]bool, len(keys))
		if err := SessionGetBatch(s, vs, keys, got, found); err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if !found[i] {
				t.Fatalf("key %d missing", keys[i])
			}
		}
		if !bytes.Equal(got, vals) {
			t.Fatal("batch values differ from what was written")
		}
		d := st.Stats().Sub(before)
		if d.Puts != int64(len(keys)) || d.Gets != int64(len(keys)) {
			t.Fatalf("one %d-key PutBatch and GetBatch counted %d puts, %d gets", len(keys), d.Puts, d.Gets)
		}

		// Deleted and never-written keys in a batch: found=false, zeroed.
		if err := s.Delete(keys[3]); err != nil {
			t.Fatal(err)
		}
		probe := []uint64{keys[3], 1<<60 + 9, keys[4]}
		pv := bytes.Repeat([]byte{0xee}, len(probe)*vs) // dirty the buffer
		pf := make([]bool, len(probe))
		if err := SessionGetBatch(s, vs, probe, pv, pf); err != nil {
			t.Fatal(err)
		}
		if pf[0] || pf[1] || !pf[2] {
			t.Fatalf("found = %v, want [false false true]", pf)
		}
		if !bytes.Equal(pv[:2*vs], make([]byte, 2*vs)) {
			t.Fatal("missing key slots not zeroed")
		}

		// Size validation.
		if err := SessionGetBatch(s, vs, keys, got[:1], found); err == nil {
			t.Fatal("undersized vals accepted")
		}
		if err := SessionPutBatch(s, vs, keys, vals[:1]); err == nil {
			t.Fatal("undersized vals accepted")
		}
	})
}

// TestStoreRecovery checkpoints, closes and reopens every matrix cell,
// then pins the two directory guards: a different shard count and a
// different engine are both refused, and the recorded pair still opens.
func TestStoreRecovery(t *testing.T) {
	const vs = 16
	forEachStore(t, func(t *testing.T, engine string, shards int) {
		cfg := testConfig(t.TempDir(), shards, vs, -1)
		st, err := OpenEngine(engine, cfg, engine)
		if err != nil {
			t.Fatal(err)
		}
		s, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{0xa5}, vs)
		for k := uint64(0); k < 300; k++ {
			val[0], val[vs-1] = byte(k), byte(k>>8)
			if err := s.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		wrong := cfg
		wrong.Shards = shards + 1
		if _, err := OpenEngine(engine, wrong, engine); err == nil {
			t.Fatalf("reopening a %d-shard store with %d shards must fail", shards, wrong.Shards)
		}
		other := EngineLSM
		if engine == EngineLSM {
			other = EngineFaster
		}
		if _, err := OpenEngine(other, cfg, other); err == nil {
			t.Fatalf("reopening a %s directory as %s must fail", engine, other)
		}

		st2, err := OpenEngine(engine, cfg, engine)
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		s2, err := st2.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		got := make([]byte, vs)
		for k := uint64(0); k < 300; k++ {
			found, err := s2.Peek(k, got)
			if err != nil || !found || got[0] != byte(k) || got[vs-1] != byte(k>>8) {
				t.Fatalf("key %d after recovery: found=%v err=%v value %v", k, found, err, got)
			}
		}
	})
}

// TestStoreBoundRefusal: the clock-free engines refuse blocking bounds at
// open and accept the non-blocking ones, reporting -1; the hybrid log takes
// any bound, on every shard, and reports it.
func TestStoreBoundRefusal(t *testing.T) {
	const asp = int64(1<<63 - 1)
	forEachStore(t, func(t *testing.T, engine string, shards int) {
		for _, bound := range []int64{0, 4, -1, asp} {
			st, err := OpenEngine(engine, testConfig(t.TempDir(), shards, 8, bound), engine)
			if refuse := ClockFree(engine) && bound >= 0 && bound != asp; refuse != (err != nil) {
				t.Fatalf("open with bound %d: err=%v", bound, err)
			}
			if err != nil {
				continue
			}
			want := bound
			if ClockFree(engine) {
				want = -1
			}
			if got := st.StalenessBound(); got != want {
				t.Fatalf("opened with bound %d: StalenessBound()=%d, want %d", bound, got, want)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestResolveOpen pins the open policy both openers share: a live model
// refuses another dim, another named engine and another explicit bound
// (one without a clock takes any non-blocking bound), and a new model
// opens under the requested bound or the default, which a clock-free
// engine runs as -1 when it would block.
func TestResolveOpen(t *testing.T) {
	const asp, refused = DefaultBound, int64(-2)
	clocked := &LiveModel{Dim: 4, Engine: EngineFaster, Bound: 4}
	clockless := &LiveModel{Dim: 4, Engine: EngineLSM, Bound: -1}
	req := func(engine string, bound int64, set bool) OpenRequest {
		return OpenRequest{ID: "m", Dim: 4, Engine: engine, Bound: bound, BoundSet: set}
	}
	for _, c := range []struct {
		name string
		req  OpenRequest
		live *LiveModel
		def  int64
		want int64
	}{
		{"live unset", req("", 0, false), clocked, asp, 4},
		{"live same bound", req(EngineFaster, 4, true), clocked, asp, 4},
		{"live other bound", req("", asp, true), clocked, asp, refused},
		{"live other dim", OpenRequest{ID: "m", Dim: 8}, clocked, asp, refused},
		{"live other engine", req(EngineLSM, 0, false), clocked, asp, refused},
		{"clockless asp", req("", asp, true), clockless, asp, -1},
		{"clockless bsp", req("", 0, true), clockless, asp, refused},
		{"new default", req(EngineFaster, 0, false), nil, asp, asp},
		{"new requested", req(EngineFaster, 0, true), nil, asp, 0},
		{"new clockless blocking default", req(EngineBPTree, 0, false), nil, 0, -1},
		{"new clockless blocking bound", req(EngineBPTree, 4, true), nil, asp, refused},
	} {
		got, err := ResolveOpen(c.req, c.live, c.def)
		if c.want == refused {
			if err == nil {
				t.Errorf("%s: accepted with bound %d", c.name, got)
			} else if c.live != nil && !strings.Contains(err.Error(), `model "m"`) {
				t.Errorf("%s: refusal does not name the model: %v", c.name, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%s: got %d, %v; want %d", c.name, got, err, c.want)
		}
	}
}

// TestSplitBudget pins the one budget split: totals divide evenly and a
// non-zero key budget never rounds to "unset".
func TestSplitBudget(t *testing.T) {
	for _, c := range []struct {
		mem      int64
		shards   int
		keys     uint64
		wantMem  int64
		wantKeys uint64
	}{
		{64 << 20, 1, 1 << 20, 64 << 20, 1 << 20},
		{64 << 20, 4, 1 << 20, 16 << 20, 1 << 18},
		{1 << 20, 3, 10, (1 << 20) / 3, 3},
		{1 << 20, 4, 3, 256 << 10, 1}, // would round to 0 = the 65 536-bucket default
		{1 << 20, 4, 0, 256 << 10, 0}, // unset stays unset
		{0, 4, 8, 0, 2},
	} {
		mem, keys := splitBudget(c.mem, c.shards, c.keys)
		if mem != c.wantMem || keys != c.wantKeys {
			t.Errorf("splitBudget(%d, %d, %d) = (%d, %d), want (%d, %d)",
				c.mem, c.shards, c.keys, mem, keys, c.wantMem, c.wantKeys)
		}
	}
}
