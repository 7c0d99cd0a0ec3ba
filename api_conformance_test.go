package mlkv_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// engineCases are the engine axis of the conformance matrix. The hybrid
// log is the one engine; the axis keeps its level in every subtest name.
var engineCases = []string{"mlkv"}

// startTestServer serves a lazily-opening model registry on loopback and
// returns an "mlkv://" target for it. The opener names each store by its
// bound, exactly like cmd/mlkv-server.
func startTestServer(t *testing.T, bound int64) string {
	t.Helper()
	target, _ := startCountedTestServer(t, bound)
	return target
}

// startCountedTestServer is startTestServer that also hands back the
// server, for tests that count the frames a call costs.
func startCountedTestServer(t *testing.T, bound int64) (string, *server.Server) {
	t.Helper()
	return startTestServerIn(t, t.TempDir(), bound)
}

// startTestServerIn is startCountedTestServer with its models under dir.
func startTestServerIn(t *testing.T, dir string, bound int64) (string, *server.Server) {
	t.Helper()
	reg := server.NewRegistry(server.RegistryConfig{
		DefaultShards: 2,
		DefaultBound:  bound,
		Opener: func(id string, dim, shards int, b int64) (kv.Store, error) {
			return kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
				Dir: filepath.Join(dir, id), Shards: shards, ValueSize: dim * 4,
				RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
				StalenessBound: b,
			}, kv.HybridLogName(b))
		},
	})
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		reg.Close()
	})
	return mlkv.Scheme + ln.Addr().String(), srv
}

// startTestCluster serves a three-node loopback cluster — primaries n0,
// n1, n2, or (withReplica) primaries n0, n1 plus n2 replicating n0 — and
// returns the full seed-list target, the per-node registries keyed by node
// id (for asserting which server actually served an op), and the topology
// map clients will discover.
func startTestCluster(t *testing.T, bound int64, withReplica bool) (string, map[string]*server.Registry, *cluster.Map) {
	t.Helper()
	return startTestClusterIn(t, t.TempDir(), bound, withReplica)
}

// startTestClusterIn is startTestCluster with node n's models under
// root/n.
func startTestClusterIn(t *testing.T, root string, bound int64, withReplica bool) (string, map[string]*server.Registry, *cluster.Map) {
	t.Helper()
	ids := []string{"n0", "n1", "n2"}
	lns := make([]net.Listener, len(ids))
	specs := make([]cluster.Node, len(ids))
	addrs := make([]string, len(ids))
	for i := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
		specs[i] = cluster.Node{ID: ids[i], Addr: addrs[i], Role: cluster.RolePrimary}
	}
	if withReplica {
		specs[2].Role = cluster.RoleReplica
		specs[2].PrimaryID = ids[0]
	}
	m, err := cluster.BuildMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	regs := make(map[string]*server.Registry, len(ids))
	for i := range ids {
		dir := filepath.Join(root, ids[i])
		reg := server.NewRegistry(server.RegistryConfig{
			DefaultShards: 2,
			DefaultBound:  bound,
			Name:          ids[i],
			Opener: func(id string, dim, shards int, b int64) (kv.Store, error) {
				return kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
					Dir: filepath.Join(dir, id), Shards: shards, ValueSize: dim * 4,
					RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
					StalenessBound: b,
				}, "mlkv")
			},
		})
		st, err := cluster.NewState(ids[i], m)
		if err != nil {
			t.Fatal(err)
		}
		st.EnableReplication()
		srv := server.New(server.Config{Registry: reg, Cluster: st})
		serveErr := make(chan error, 1)
		go func(ln net.Listener) { serveErr <- srv.Serve(ln) }(lns[i])
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
			st.Close()
			reg.Close()
		})
		regs[ids[i]] = reg
	}
	return mlkv.Scheme + strings.Join(addrs, ","), regs, m
}

// clusterModelStats returns the named model's server-side stats on one
// node of the cluster. The router eager-opens models on every node, so a
// missing model is a harness failure, not an assertable condition.
func clusterModelStats(t *testing.T, reg *server.Registry, id string) stats.Counters {
	t.Helper()
	for _, m := range reg.Models() {
		if m.ID() == id {
			return m.Stats()
		}
	}
	t.Fatalf("node %s has no model %q", reg.Name(), id)
	return stats.Counters{}
}

// withTargets runs fn against a local directory DB, a live loopback
// mlkv-server, and a three-node loopback cluster — the driver axis of the
// conformance harness: the public API must behave identically over all
// three.
func withTargets(t *testing.T, fn func(t *testing.T, db *mlkv.DB)) {
	t.Run("local", func(t *testing.T) {
		db, err := mlkv.Connect(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fn(t, db)
	})
	t.Run("remote", func(t *testing.T) {
		db, err := mlkv.Connect(startTestServer(t, mlkv.ASP), mlkv.WithConns(3))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fn(t, db)
	})
	t.Run("cluster", func(t *testing.T) {
		target, _, _ := startTestCluster(t, mlkv.ASP, false)
		db, err := mlkv.Connect(target, mlkv.WithConns(2))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fn(t, db)
	})
}

// withEngineTargets runs fn over the full conformance matrix: the engine
// axis × every driver (local, remote, cluster). The same API calls must
// observe the same behavior in every cell.
func withEngineTargets(t *testing.T, fn func(t *testing.T, db *mlkv.DB)) {
	for _, engine := range engineCases {
		t.Run(engine, func(t *testing.T) { withTargets(t, fn) })
	}
}

func f32sEq(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAPITwoModels opens two models with differing dimensions on one DB
// and drives the full session surface on both: first-touch Get, batch
// round trips, Peek, Lookahead, RMW, Delete, Checkpoint, and stats —
// over every driver.
func TestAPITwoModels(t *testing.T) {
	withEngineTargets(t, func(t *testing.T, db *mlkv.DB) {
		a, err := db.Open("conf-a", 8, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithMemory(4<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := db.Open("conf-b", 4, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithMemory(4<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if a.Dim() != 8 || b.Dim() != 4 {
			t.Fatalf("dims: %d/%d", a.Dim(), b.Dim())
		}
		// Dim mismatch on an existing model is refused on either driver.
		if _, err := db.Open("conf-a", 16); err == nil {
			t.Fatal("dim mismatch accepted")
		}

		sa, err := a.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sa.Close()
		sb, err := b.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer sb.Close()

		// First touch initializes deterministically; the same key on the
		// two models is independent state.
		embA := make([]float32, 8)
		if err := sa.Get(7, embA); err != nil {
			t.Fatal(err)
		}
		if err := sa.Put(7, embA); err != nil {
			t.Fatal(err)
		}
		wantB := []float32{1, 2, 3, 4}
		if err := sb.Put(7, wantB); err != nil {
			t.Fatal(err)
		}
		gotB := make([]float32, 4)
		if found, err := sb.Peek(7, gotB); err != nil || !found || !f32sEq(gotB, wantB) {
			t.Fatalf("model b key 7: found=%v err=%v got=%v", found, err, gotB)
		}
		gotA := make([]float32, 8)
		if found, err := sa.Peek(7, gotA); err != nil || !found || !f32sEq(gotA, embA) {
			t.Fatalf("model a key 7 clobbered: found=%v err=%v got=%v", found, err, gotA)
		}

		// Batch round trip on model a.
		keys := []uint64{100, 101, 102, 103}
		vals := make([]float32, len(keys)*8)
		for i := range vals {
			vals[i] = float32(i) * 0.5
		}
		if err := sa.PutBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		got := make([]float32, len(vals))
		if err := sa.GetBatch(keys, got); err != nil {
			t.Fatal(err)
		}
		if err := sa.PutBatch(keys, got); err != nil { // balance the clock
			t.Fatal(err)
		}
		if !f32sEq(got, vals) {
			t.Fatal("batch round trip mismatch")
		}

		// Lookahead is asynchronous (or a no-op) and safe on every cell.
		if err := sa.Lookahead(keys); err != nil {
			t.Fatal(err)
		}

		// RMW applies the gradient step.
		grad := make([]float32, 8)
		grad[0] = 2
		if err := sa.RMW(100, grad, 0.5); err != nil {
			t.Fatal(err)
		}
		if found, err := sa.Peek(100, gotA); err != nil || !found || gotA[0] != vals[0]-1 {
			t.Fatalf("RMW: found=%v err=%v got=%v want first %v", found, err, gotA[0], vals[0]-1)
		}

		// Delete removes the key on the right model only.
		if err := sb.Delete(7); err != nil {
			t.Fatal(err)
		}
		if found, _ := sb.Peek(7, gotB); found {
			t.Fatal("model b key 7 survived delete")
		}
		if found, _ := sa.Peek(7, gotA); !found {
			t.Fatal("model a key 7 vanished with model b's delete")
		}

		if err := a.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, err := a.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Gets == 0 || st.Puts == 0 || st.BatchGets == 0 || st.BatchPuts == 0 {
			t.Fatalf("stats dropped counters: %+v", st)
		}
	})
}

// TestAPIStatsParity runs one Get/GetBatch/Put/PutBatch/RMW/Peek/Lookahead
// script against every cell and requires the same counters to come out
// non-zero in each — the end-to-end check on the one counter record: a
// field some layer forgets to fill or forward reads zero in one cell only.
// An RMW is one engine RMW in every cell (remotely, one APPLY frame); the
// one documented difference is that only a cluster target reports topology.
// Latency is timed per model handle at the same ops in every cell: each
// class counts exactly the calls of its op (Peek and Lookahead are
// untimed), and a second model on the same DB that was never used reports
// none of them. BatchGets, BatchPuts and LookaheadCalls count the caller's
// calls in every cell, not the frames a single key or a cluster fan-out
// sends.
func TestAPIStatsParity(t *testing.T) {
	common := []string{
		"Gets", "Puts", "RMWs", "MemHits", "InPlaceUpdates", "RCUAppends",
		"BatchGets", "BatchPuts", "LookaheadCalls",
		"LatGet", "LatGetBatch", "LatPut", "LatPutBatch", "LatRMW",
	}
	extra := map[string][]string{
		"cluster": {"ClusterNodes", "ClusterEpoch"},
	}
	withTargets(t, func(t *testing.T, db *mlkv.DB) {
		m, err := db.Open("stats-parity", 4, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithMemory(4<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		idle, err := db.Open("stats-parity-idle", 4, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithMemory(4<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer idle.Close()
		s, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys := make([]uint64, 64) // enough to land on every cluster owner
		vals := make([]float32, len(keys)*4)
		for i := range keys {
			keys[i] = uint64(i)
			vals[i*4] = float32(i)
		}
		one, grad := make([]float32, 4), []float32{1, 0, 0, 0}
		for _, step := range []func() error{
			func() error { return s.PutBatch(keys, vals) },
			func() error { return s.GetBatch(keys, vals) },
			func() error { return s.PutBatch(keys, vals) }, // balance the clocked reads
			func() error { return s.Get(1, one) },
			func() error { return s.Put(1, one) },
			func() error { return s.RMW(2, grad, 0.5) },
			func() error { _, err := s.Peek(3, one); return err },
			func() error { return s.Lookahead(keys) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		// Every driver counts a Lookahead call when it is made.
		st, err := m.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Struct {
				f = f.FieldByName("Count") // a LatencySummary is non-zero once exercised
			}
			if f.Int() != 0 {
				got = append(got, v.Type().Field(i).Name)
			}
		}
		want := append(append([]string{}, common...), extra[path.Base(t.Name())]...)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("non-zero counters:\n got %v\nwant %v\nstats %+v", got, want, st)
		}
		if path.Base(t.Name()) == "cluster" && st.ClusterNodes != 3 {
			t.Fatalf("ClusterNodes = %d, want 3", st.ClusterNodes)
		}
		lat := func(st mlkv.Stats) [5]int64 {
			return [5]int64{st.LatGet.Count, st.LatGetBatch.Count, st.LatPut.Count, st.LatPutBatch.Count, st.LatRMW.Count}
		}
		if got, want := lat(st), [5]int64{1, 1, 1, 2, 1}; got != want {
			t.Errorf("latency counts Get/GetBatch/Put/PutBatch/RMW = %v, want %v", got, want)
		}
		if got, want := [3]int64{st.BatchGets, st.BatchPuts, st.LookaheadCalls}, [3]int64{1, 2, 1}; got != want {
			t.Errorf("BatchGets/BatchPuts/LookaheadCalls = %v, want %v (the caller's calls)", got, want)
		}
		ist, err := idle.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := lat(ist); got != [5]int64{} {
			t.Fatalf("a model never used reports latency counts Get/GetBatch/Put/PutBatch/RMW = %v, want none", got)
		}
	})
}

// TestAPIFloatBits pins what the byte view of a []float32 promises across
// every cell of the matrix, the wire and the client-side tier included: the
// caller's words reach the engine and come back bit for bit — NaN payloads
// (quiet, signalling, negative), −0, a denormal — through Put/PutBatch and
// Get/GetBatch/Peek alike.
func TestAPIFloatBits(t *testing.T) {
	want := []float32{1.5, -2.25, float32(math.Inf(-1))}
	for _, bits := range []uint32{0x7fc00001, 0x7f800001, 0xffc12345, 0x80000000, 0x00000001} {
		want = append(want, math.Float32frombits(bits))
	}
	withEngineTargets(t, func(t *testing.T, db *mlkv.DB) {
		for _, tier := range []int{0, 64} {
			m, err := db.Open(fmt.Sprintf("bits%d", tier), len(want), mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithCache(tier))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			s, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Put(7, want); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBatch([]uint64{8, 9}, append(append([]float32{}, want...), want...)); err != nil {
				t.Fatal(err)
			}
			got, batch, peeked := make([]float32, len(want)), make([]float32, 3*len(want)), make([]float32, len(want))
			if err := s.Get(8, got); err != nil {
				t.Fatal(err)
			}
			if err := s.GetBatch([]uint64{9, 7, 8}, batch); err != nil {
				t.Fatal(err)
			}
			if ok, err := s.Peek(7, peeked); err != nil || !ok {
				t.Fatal(ok, err)
			}
			for name, v := range map[string][]float32{
				"Get": got, "Peek": peeked,
				"GetBatch[0]": batch[:len(want)], "GetBatch[1]": batch[len(want) : 2*len(want)], "GetBatch[2]": batch[2*len(want):],
			} {
				if !f32sEq(v, want) {
					t.Fatalf("tier %d: %s returned %x, want %x", tier, name, f32Bits(v), f32Bits(want))
				}
			}
		}
	})
}

func f32Bits(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = math.Float32bits(x)
	}
	return out
}

// TestAPIFirstTouchParity pins the property the CI quickstart-divergence
// check relies on: the same key initializes to the same embedding local or
// remote (every cell runs the same seeded initializer) — and that initializer,
// the default, is exactly UniformInit(0.05).
func TestAPIFirstTouchParity(t *testing.T) {
	read := func(t *testing.T, db *mlkv.DB, id string, opts ...mlkv.Option) []float32 {
		opts = append(opts, mlkv.WithStalenessBound(mlkv.ASP))
		m, err := db.Open(id, 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		s, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := make([]float32, 8)
		if err := s.Get(42, out); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(42, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	local, err := mlkv.Connect(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote, err := mlkv.Connect(startTestServer(t, mlkv.ASP), mlkv.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	lv := read(t, local, "parity")
	rv := read(t, remote, "parity")
	explicit := mlkv.WithInitializer(mlkv.UniformInit(0.05))
	lx := read(t, local, "parity-explicit", explicit)
	rx := read(t, remote, "parity-explicit", explicit)
	if !f32sEq(rv, lv) || !f32sEq(lx, lv) || !f32sEq(rx, lv) {
		t.Fatalf("first-touch values diverge: local=%v remote=%v, UniformInit(0.05) local=%v remote=%v",
			lv, rv, lx, rx)
	}
}

// TestAPIRMWFirstTouchParity pins RMW on a never-read key in every cell of
// the matrix: it steps from the initializer's value, exactly as a Get
// followed by the update would — init(key) − lr·grad, bit for bit, whether
// the engine RMW initializes inside its callback (local) or the server
// answers found=0 and the client writes the first-touch step back (remote,
// cluster). The initializer is seeded per key, so a second model's Get of
// the same key supplies the reference.
func TestAPIRMWFirstTouchParity(t *testing.T) {
	withEngineTargets(t, func(t *testing.T, db *mlkv.DB) {
		const dim, key, lr = 8, 4242, float32(0.25)
		// The closers run before withTargets closes db (a t.Cleanup would
		// run after it).
		session := func(id string) (*mlkv.Session, func()) {
			m, err := db.Open(id, dim, mlkv.WithStalenessBound(mlkv.ASP))
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.NewSession()
			if err != nil {
				m.Close()
				t.Fatal(err)
			}
			return s, func() { s.Close(); m.Close() }
		}
		ref, closeRef := session("ft-read")
		defer closeRef()
		s, closeS := session("ft-rmw")
		defer closeS()
		want, grad := make([]float32, dim), make([]float32, dim)
		if err := ref.Get(key, want); err != nil {
			t.Fatal(err)
		}
		if f32sEq(want, make([]float32, dim)) {
			t.Fatal("the default initializer produced zeros; the parity check would be vacuous")
		}
		for i := range grad {
			grad[i] = float32(i) - 3
			want[i] -= lr * grad[i]
		}
		if err := s.RMW(key, grad, lr); err != nil {
			t.Fatal(err)
		}
		got := make([]float32, dim)
		if found, err := s.Peek(key, got); err != nil || !found || !f32sEq(got, want) {
			t.Fatalf("RMW on a never-read key: found=%v err=%v\n got %v\nwant %v (init − lr·grad)", found, err, got, want)
		}
	})
}

// TestAPIRMWNoLostUpdates is the atomicity check on the update primitive:
// N sessions × M RMWs of a unit gradient on one key must land on exactly
// start − N·M on every driver. Remotely that holds because an RMW is one
// APPLY frame run as a single engine RMW; a client-side Get+step+Put loses
// steps here.
func TestAPIRMWNoLostUpdates(t *testing.T) {
	withEngineTargets(t, func(t *testing.T, db *mlkv.DB) {
		const dim, key, sessions, steps, start = 4, 77, 4, 200, float32(5000)
		m, err := db.Open("lost-update", dim, mlkv.WithStalenessBound(mlkv.ASP))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ss := make([]*mlkv.Session, sessions)
		for i := range ss {
			if ss[i], err = m.NewSession(); err != nil {
				t.Fatal(err)
			}
			defer ss[i].Close()
		}
		if err := ss[0].Put(key, []float32{start, start, start, start}); err != nil {
			t.Fatal(err)
		}
		grad := []float32{1, 1, 1, 1}
		errs := make(chan error, sessions)
		for _, s := range ss {
			go func(s *mlkv.Session) {
				for i := 0; i < steps; i++ {
					if err := s.RMW(key, grad, 1); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(s)
		}
		for range ss {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		got, want := make([]float32, dim), start-sessions*steps
		if found, err := ss[0].Peek(key, got); err != nil || !found || !f32sEq(got, []float32{want, want, want, want}) {
			t.Fatalf("%d sessions × %d unit steps from %v: found=%v err=%v value %v, want %v in every slot",
				sessions, steps, start, found, err, got, want)
		}
	})
}

// TestAPILookaheadLeadsRead drives the look-ahead contract through the
// public API on every target: a hint per upcoming batch, issued before the
// batch is read, turns each of its disk-resident records into a copy in
// memory — locally through the table's prefetch pool, remotely as one
// LOOKAHEAD frame per hint (one per owning node in a cluster) — and the
// batch reads that follow do not touch disk.
func TestAPILookaheadLeadsRead(t *testing.T) {
	const (
		dim     = 16
		batch   = 256
		hints   = 3
		records = 80 * 1024 // ~7 MiB of log against 1 MiB of memory per store
	)
	withTargets(t, func(t *testing.T, db *mlkv.DB) {
		m, err := db.Open("lookahead", dim, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithMemory(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		s, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys := make([]uint64, 1024)
		vals := make([]float32, len(keys)*dim)
		for lo := 0; lo < records; lo += len(keys) {
			for i := range keys {
				keys[i] = uint64(lo + i)
				vals[i*dim] = float32(lo + i)
			}
			if err := s.PutBatch(keys, vals); err != nil {
				t.Fatal(err)
			}
		}
		// The oldest keys are the coldest. One key slice serves every hint:
		// Lookahead keeps no reference to it.
		keys, vals = keys[:batch], vals[:batch*dim]
		before := m.Stats()
		for h := 0; h < hints; h++ {
			for i := range keys {
				keys[i] = uint64(h*batch + i)
			}
			if err := s.Lookahead(keys); err != nil {
				t.Fatal(err)
			}
		}
		st := m.Stats()
		for deadline := time.Now().Add(5 * time.Second); st.PrefetchCopies-before.PrefetchCopies < hints*batch && time.Now().Before(deadline); st = m.Stats() {
			time.Sleep(time.Millisecond)
		}
		if got := st.PrefetchCopies - before.PrefetchCopies; got != hints*batch || st.PrefetchDropped != 0 {
			t.Fatalf("%d hints of %d cold keys: %d copies, %d keys dropped", hints, batch, got, st.PrefetchDropped)
		}
		// LookaheadCalls counts the caller's calls on every driver.
		if calls := st.LookaheadCalls - before.LookaheadCalls; calls != hints {
			t.Fatalf("%d hints sent, LookaheadCalls rose by %d", hints, calls)
		}
		for h := 0; h < hints; h++ {
			for i := range keys {
				keys[i] = uint64(h*batch + i)
			}
			if err := s.GetBatch(keys, vals); err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if vals[i*dim] != float32(k) {
					t.Fatalf("key %d reads %v after its hint", k, vals[i*dim])
				}
			}
		}
		if got := m.Stats().DiskReads - st.DiskReads; got != 0 {
			t.Fatalf("the hinted batches read disk %d times", got)
		}
	})
}

// TestRemoteRMWIsOneFrame counts what an RMW costs the server: exactly one
// request on an existing key (the APPLY), and the first-touch sequence on
// an absent one — the APPLY that finds nothing, then the PUT of
// init − lr·grad.
func TestRemoteRMWIsOneFrame(t *testing.T) {
	target, srv := startCountedTestServer(t, mlkv.ASP)
	db, err := mlkv.Connect(target)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open("one-frame", 4, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	grad := []float32{1, 1, 1, 1}
	cost := func(key uint64) int64 {
		before := srv.Stats().Requests
		if err := s.RMW(key, grad, 0.5); err != nil {
			t.Fatal(err)
		}
		return srv.Stats().Requests - before
	}
	if n := cost(1); n != 2 {
		t.Fatalf("RMW on an absent key cost %d requests, want 2 (APPLY found nothing, PUT wrote the first touch)", n)
	}
	for i := 0; i < 3; i++ {
		if n := cost(1); n != 1 {
			t.Fatalf("RMW on an existing key cost %d requests, want exactly 1", n)
		}
	}
	if st := srv.Stats(); st.Errors != 0 {
		t.Fatalf("the server answered %d errors", st.Errors)
	}
}

// TestAPICtxCancellation pins the context contract on both drivers: a
// clocked read stalled on the staleness bound (BSP, token held by another
// session) returns ctx.Err() at the deadline instead of waiting, holds no
// token afterward, and the stalled key becomes readable once the
// releasing write lands.
func TestAPICtxCancellation(t *testing.T) {
	run := func(t *testing.T, db *mlkv.DB) {
		m, err := db.Open("cancel", 4, mlkv.WithStalenessBound(mlkv.BSP), mlkv.WithMemory(4<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		s1, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s1.Close()
		s2, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()

		emb := make([]float32, 4)
		const key = 9
		// Create the key with a balanced clock first (remote first touch
		// initializes client-side without acquiring a token), then have
		// s1 acquire the token with a clocked read of the existing record.
		if err := s1.Get(key, emb); err != nil {
			t.Fatal(err)
		}
		if err := s1.Put(key, emb); err != nil {
			t.Fatal(err)
		}
		if err := s1.Get(key, emb); err != nil {
			t.Fatal(err)
		}
		// s2's read must stall on the bound and give up at the deadline:
		// not before it (a remote server gives up a little early, but the
		// call still ends at the deadline), and not long after.
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		start := time.Now()
		err = s2.GetCtx(ctx, key, emb)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled read returned %v, want DeadlineExceeded", err)
		}
		if d, _ := ctx.Deadline(); time.Now().Before(d) {
			t.Fatalf("stalled read returned %v before its deadline", d.Sub(time.Now()))
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("cancelled read did not return promptly")
		}
		// The releasing write unblocks the key; the cancelled read left
		// no token behind, so one Get/Put cycle balances cleanly.
		if err := s1.Put(key, emb); err != nil {
			t.Fatal(err)
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := s2.GetCtx(ctx2, key, emb); err != nil {
			t.Fatalf("read after release: %v", err)
		}
		if err := s2.Put(key, emb); err != nil {
			t.Fatal(err)
		}
	}
	for _, engine := range engineCases {
		t.Run(engine, func(t *testing.T) {
			t.Run("local", func(t *testing.T) {
				db, err := mlkv.Connect(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				run(t, db)
			})
			t.Run("remote", func(t *testing.T) {
				// Two conns: the stalled read's connection handler blocks on
				// the server until the releasing write arrives on the other.
				db, err := mlkv.Connect(startTestServer(t, mlkv.BSP), mlkv.WithConns(2))
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				run(t, db)
			})
		})
	}
}

// TestAPIRemoteSessionRelease verifies the public remote driver detaches
// sessions: the server's per-model gauge follows Session.Close.
func TestAPIRemoteSessionRelease(t *testing.T) {
	for _, engine := range engineCases {
		t.Run(engine, func(t *testing.T) {
			db, err := mlkv.Connect(startTestServer(t, mlkv.ASP), mlkv.WithConns(2))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			m, err := db.Open("release", 4)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			s1, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			s2, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			if n := m.ActiveSessions(); n != 2 {
				t.Fatalf("ActiveSessions = %d, want 2", n)
			}
			s1.Close()
			if n := m.ActiveSessions(); n != 1 {
				t.Fatalf("ActiveSessions = %d after one close, want 1", n)
			}
			s2.Close()
			if n := m.ActiveSessions(); n != 0 {
				t.Fatalf("ActiveSessions = %d after both closed, want 0", n)
			}
		})
	}
}

// TestAPISharedModelClose pins handle semantics across the matrix:
// opening a name twice shares the model, and double-closing one handle
// releases its reference exactly once — the sibling handle keeps working.
func TestAPISharedModelClose(t *testing.T) {
	withEngineTargets(t, func(t *testing.T, db *mlkv.DB) {
		m1, err := db.Open("shared", 4, mlkv.WithStalenessBound(mlkv.ASP))
		if err != nil {
			t.Fatal(err)
		}
		m2, err := db.Open("shared", 4, mlkv.WithStalenessBound(mlkv.ASP))
		if err != nil {
			t.Fatal(err)
		}
		if err := m1.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m1.Close(); err != nil { // double close of one handle
			t.Fatal(err)
		}
		s, err := m2.NewSession()
		if err != nil {
			t.Fatalf("sibling handle broken after double close: %v", err)
		}
		emb := make([]float32, 4)
		if err := s.Get(1, emb); err != nil {
			t.Fatalf("sibling session broken: %v", err)
		}
		if err := s.Put(1, emb); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAPIEngineSelection pins how a model names its engine end to end:
// the bound alone decides it. A model with a running clock is "mlkv", one
// opened Disabled is "faster" (plain FASTER), on both drivers; remotely,
// plain FASTER also comes from a server whose default bound is -staleness
// -1, with no option at all.
func TestAPIEngineSelection(t *testing.T) {
	cases := []struct {
		id    string
		opts  []mlkv.Option
		name  string
		bound int64
	}{
		{"sel-mlkv", nil, "mlkv", mlkv.ASP},
		{"sel-faster", []mlkv.Option{mlkv.WithStalenessBound(mlkv.Disabled)}, "faster", mlkv.Disabled},
	}
	check := func(t *testing.T, db *mlkv.DB, wrap string) {
		for _, c := range cases {
			m, err := db.Open(c.id, 4, c.opts...)
			if err != nil {
				t.Fatalf("%s: %v", c.id, err)
			}
			want := c.name
			if wrap != "" {
				want = wrap + "(" + c.name + ")"
			}
			if got := m.EngineName(); got != want {
				t.Fatalf("%s: EngineName = %q, want %q", c.id, got, want)
			}
			if got := m.StalenessBound(); got != c.bound {
				t.Fatalf("%s: StalenessBound = %d, want %d", c.id, got, c.bound)
			}
			m.Close()
		}
	}
	t.Run("local", func(t *testing.T) {
		db, err := mlkv.Connect(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		check(t, db, "")
	})
	t.Run("remote", func(t *testing.T) {
		db, err := mlkv.Connect(startTestServer(t, mlkv.ASP), mlkv.WithConns(2))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		check(t, db, "remote")
		// Against a registry whose default is mlkv-server's -staleness -1,
		// a model opened with no options runs the hybrid log with the
		// clock off, while one asking for ASP on the same server runs it.
		bound, err := server.FlagBound(-1)
		if err != nil {
			t.Fatal(err)
		}
		plainDB, err := mlkv.Connect(startTestServer(t, bound), mlkv.WithConns(2))
		if err != nil {
			t.Fatal(err)
		}
		defer plainDB.Close()
		cases = []struct {
			id    string
			opts  []mlkv.Option
			name  string
			bound int64
		}{
			{"plain", nil, "faster", mlkv.Disabled},
			{"clocked", []mlkv.Option{mlkv.WithStalenessBound(mlkv.ASP)}, "mlkv", mlkv.ASP},
		}
		check(t, plainDB, "remote")
	})
}

// TestAPIEngineValidation pins the engine refusals that remain with one
// engine: kv.OpenEngine refuses an unknown engine name, naming it, and on
// every driver a model whose directory's ENGINE marker names the retired
// B+tree is refused by name rather than opened as an empty log.
func TestAPIEngineValidation(t *testing.T) {
	if _, err := kv.OpenEngine("rocksdb", kv.ShardedConfig{Dir: t.TempDir(), ValueSize: 16}, "x"); err == nil {
		t.Fatal("unknown engine accepted")
	} else if !strings.Contains(err.Error(), "rocksdb") {
		t.Fatalf("unknown-engine error does not name the engine: %v", err)
	}
	// markRetired leaves model "old" under dir as a B+tree would have.
	markRetired := func(t *testing.T, dir string) {
		if err := os.MkdirAll(filepath.Join(dir, "old"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "old", "ENGINE"), []byte("bptree\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(t *testing.T, target string) {
		db, err := mlkv.Connect(target, mlkv.WithConns(2))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		m, err := db.Open("old", 4)
		if err == nil {
			m.Close()
			t.Fatal("a directory marked bptree opened")
		}
		if !strings.Contains(err.Error(), `"bptree"`) {
			t.Fatalf("refusal does not name the marker: %v", err)
		}
	}
	t.Run("local", func(t *testing.T) {
		dir := t.TempDir()
		markRetired(t, dir)
		refused(t, dir)
	})
	t.Run("remote", func(t *testing.T) {
		dir := t.TempDir()
		markRetired(t, dir)
		target, _ := startTestServerIn(t, dir, mlkv.ASP)
		refused(t, target)
	})
	t.Run("cluster", func(t *testing.T) {
		root := t.TempDir()
		for _, n := range []string{"n0", "n1", "n2"} {
			markRetired(t, filepath.Join(root, n))
		}
		target, _, _ := startTestClusterIn(t, root, mlkv.ASP, false)
		refused(t, target)
	})
}

// TestAPIBoundFixedAtOpen pins that a live model's staleness bound is the
// one it opened with, on every driver: a second handle asking for another
// bound is refused and leaves the first handle's bound alone, while a
// reopen at the same bound or with none shares the model and reports the
// bound its store runs.
func TestAPIBoundFixedAtOpen(t *testing.T) {
	withTargets(t, func(t *testing.T, db *mlkv.DB) {
		a, err := db.Open("fixed", 4, mlkv.WithStalenessBound(4))
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if b, err := db.Open("fixed", 4, mlkv.WithStalenessBound(mlkv.ASP)); err == nil {
			b.Close()
			t.Fatalf("reopen at ASP of a model running SSP(4) accepted; first handle now reports %d", a.StalenessBound())
		} else if !strings.Contains(err.Error(), `"fixed"`) || !strings.Contains(err.Error(), "bound 4") {
			t.Fatalf("bound refusal does not name the model and its bound: %v", err)
		}
		if got := a.StalenessBound(); got != 4 {
			t.Fatalf("first handle reports bound %d after a refused reopen, want 4", got)
		}
		for _, opts := range [][]mlkv.Option{{mlkv.WithStalenessBound(4)}, nil} {
			c, err := db.Open("fixed", 4, opts...)
			if err != nil {
				t.Fatalf("reopen with %d options: %v", len(opts), err)
			}
			if got := c.StalenessBound(); got != 4 {
				t.Fatalf("reopen with %d options reports bound %d, want 4", len(opts), got)
			}
			c.Close()
		}
	})
}

// TestAPIDefaultBound pins the one default: a model opened without
// WithStalenessBound runs the same bound on a local directory as on a
// server started with mlkv-server's default -staleness flag (-2, mapped by
// server.FlagBound, which the command calls).
func TestAPIDefaultBound(t *testing.T) {
	open := func(target string) int64 {
		t.Helper()
		db, err := mlkv.Connect(target)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		m, err := db.Open("default-bound", 4)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return m.StalenessBound()
	}
	flagDefault, err := server.FlagBound(-2)
	if err != nil {
		t.Fatal(err)
	}
	local, remote := open(t.TempDir()), open(startTestServer(t, flagDefault))
	if local != remote || local != kv.DefaultBound {
		t.Fatalf("default bound: local %d, remote %d, want both %d", local, remote, kv.DefaultBound)
	}
}

// TestClusterOwnerRouting pins the partitioning invariant end to end:
// every key written through the cluster driver lands on exactly the node
// the topology map names as its owner — counted server-side, per node.
func TestClusterOwnerRouting(t *testing.T) {
	target, regs, mp := startTestCluster(t, mlkv.ASP, false)
	db, err := mlkv.Connect(target, mlkv.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open("route", 4, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	emb := []float32{1, 2, 3, 4}
	const keys = 96
	want := map[string]int64{}
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, emb); err != nil {
			t.Fatal(err)
		}
		want[mp.Owner(k).ID]++
	}
	spread := 0
	for id, reg := range regs {
		st := clusterModelStats(t, reg, "route")
		if st.Puts != want[id] {
			t.Fatalf("node %s served %d puts, want %d: keys did not route to exactly their owner", id, st.Puts, want[id])
		}
		if want[id] > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("all %d keys landed on %d node(s); the topology was not exercised", keys, spread)
	}
}

// TestClusterReplicaRouting pins staleness-aware read routing against a
// two-primaries-plus-replica topology: BSP reads never touch the replica
// (a clocked read must see the primary's vector clock), while ASP reads on
// the same keys do — counted both server-side (the replica's read frames of
// either kind, single or batch) and client-side (Stats.ReplicaReads).
func TestClusterReplicaRouting(t *testing.T) {
	target, regs, mp := startTestCluster(t, mlkv.ASP, true)
	db, err := mlkv.Connect(target, mlkv.WithConns(2), mlkv.WithReadReplicas())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Only keys owned by n0 — the replica's primary — can ever be
	// replica-served, so the test drives exactly those.
	var keys []uint64
	for k := uint64(0); len(keys) < 8; k++ {
		if mp.Owner(k).ID == "n0" {
			keys = append(keys, k)
		}
	}
	emb := make([]float32, 4)

	// BSP first (the router's replica-read counter is pool-wide, so the
	// zero assertion must precede any ASP traffic).
	bsp, err := db.Open("repl-bsp", 4, mlkv.WithStalenessBound(mlkv.BSP))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := bsp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := sb.Get(k, emb); err != nil {
			t.Fatal(err)
		}
	}
	if st := clusterModelStats(t, regs["n2"], "repl-bsp"); st.LatGet.Count+st.LatGetBatch.Count != 0 {
		t.Fatalf("BSP reads reached the replica %d times; a clocked read must stay on the primary", st.LatGet.Count+st.LatGetBatch.Count)
	}
	bst, err := bsp.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bst.ReplicaReads != 0 {
		t.Fatalf("client counted %d replica reads under BSP, want 0", bst.ReplicaReads)
	}
	sb.Close()
	bsp.Close()

	// ASP: the same keys are admissible on the replica regardless of lag.
	asp, err := db.Open("repl-asp", 4, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer asp.Close()
	sa, err := asp.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	for _, k := range keys {
		if err := sa.Put(k, emb); err != nil {
			t.Fatal(err)
		}
	}
	// Replication is asynchronous: let the replica apply every write
	// first, so the reads below find the keys there instead of missing
	// and re-reading from the primary, which ReplicaReads does not count.
	waitFor(t, 5*time.Second, "the replica to apply the ASP writes", func() bool {
		for _, m := range regs["n2"].Models() {
			if m.ID() == "repl-asp" {
				return m.Stats().Puts >= int64(len(keys))
			}
		}
		return false
	})
	for _, k := range keys {
		if err := sa.Get(k, emb); err != nil {
			t.Fatal(err)
		}
	}
	if st := clusterModelStats(t, regs["n2"], "repl-asp"); st.LatGet.Count+st.LatGetBatch.Count == 0 {
		t.Fatal("ASP reads of replica-covered keys never reached the replica")
	}
	ast, err := asp.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ast.ReplicaReads == 0 {
		t.Fatal("client counted no replica reads under ASP")
	}
}

// TestClusterReplicaDeathFallback pins read availability: a replica dying
// mid-session turns its reads into primary reads, not errors. The cluster
// is two primaries plus a replica of n0; after the replica is shut down,
// single gets and batch gets over both primaries' key ranges — the paths
// that previously routed to the replica — must still return every value.
func TestClusterReplicaDeathFallback(t *testing.T) {
	ids := []string{"n0", "n1", "n2"}
	lns := make([]net.Listener, len(ids))
	specs := make([]cluster.Node, len(ids))
	addrs := make([]string, len(ids))
	for i := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
		specs[i] = cluster.Node{ID: ids[i], Addr: addrs[i], Role: cluster.RolePrimary}
	}
	specs[2].Role = cluster.RoleReplica
	specs[2].PrimaryID = ids[0]
	mp, err := cluster.BuildMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	regs := map[string]*server.Registry{}
	stops := map[string]func(){}
	for i := range ids {
		dir := t.TempDir()
		reg := server.NewRegistry(server.RegistryConfig{
			DefaultShards: 2,
			DefaultBound:  mlkv.ASP,
			Name:          ids[i],
			Opener: func(id string, dim, shards int, b int64) (kv.Store, error) {
				return kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
					Dir: filepath.Join(dir, id), Shards: shards, ValueSize: dim * 4,
					RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
					StalenessBound: b,
				}, ids[i])
			},
		})
		st, err := cluster.NewState(ids[i], mp)
		if err != nil {
			t.Fatal(err)
		}
		st.EnableReplication()
		srv := server.New(server.Config{Registry: reg, Cluster: st})
		serveErr := make(chan error, 1)
		go func(ln net.Listener) { serveErr <- srv.Serve(ln) }(lns[i])
		stopped := false
		stop := func() {
			if stopped {
				return
			}
			stopped = true
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
			st.Close()
			reg.Close()
		}
		stops[ids[i]] = stop
		t.Cleanup(stop)
		regs[ids[i]] = reg
	}

	db, err := mlkv.Connect(mlkv.Scheme+strings.Join(addrs[:2], ","), mlkv.WithConns(2), mlkv.WithReadReplicas())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open("repl-death", 4, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Keys spanning both primaries, values tagged by key.
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i)
		emb := []float32{float32(i), 1, 2, 3}
		if err := s.Put(keys[i], emb); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the replica route so the session holds live replica state
	// (ASP admits the replica unconditionally), then prove the replica
	// actually served something — otherwise the fallback below is vacuous.
	emb := make([]float32, 4)
	for _, k := range keys {
		if err := s.Get(k, emb); err != nil {
			t.Fatal(err)
		}
	}
	if st := clusterModelStats(t, regs["n2"], "repl-death"); st.LatGet.Count+st.LatGetBatch.Count == 0 {
		t.Fatal("ASP reads never reached the replica; the fallback path is not being exercised")
	}

	stops["n2"]() // the replica dies mid-session

	// Single reads: every key must still resolve, n0's via fallback.
	for i, k := range keys {
		if err := s.Get(k, emb); err != nil {
			t.Fatalf("get key %d after replica death: %v", k, err)
		}
		if emb[0] != float32(i) {
			t.Fatalf("key %d after replica death: got %v", k, emb[0])
		}
	}

	// Batch read across both primaries: the dead replica's group must be
	// re-served by its primary inside the same call.
	batch := make([]float32, len(keys)*4)
	if err := s.GetBatch(keys, batch); err != nil {
		t.Fatalf("batch after replica death: %v", err)
	}
	for i := range keys {
		if v := batch[i*4]; v != float32(i) {
			t.Fatalf("key %d after replica death: got %v", keys[i], v)
		}
	}

	// Opening a model after the replica died must also succeed: replicas
	// are a read optimization, not an availability dependency.
	late, err := db.Open("repl-death-late", 4, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatalf("open after replica death: %v", err)
	}
	defer late.Close()
	sl, err := late.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	if err := sl.Put(1, []float32{9, 9, 9, 9}); err != nil {
		t.Fatalf("put on late-opened model: %v", err)
	}
	if err := sl.Get(1, emb); err != nil {
		t.Fatalf("get on late-opened model: %v", err)
	}
	if emb[0] != 9 {
		t.Fatalf("late-opened model read back %v, want 9", emb[0])
	}

	// Stats merge the two primaries and skip the unreachable replica: its
	// counters are unavailable, not an error.
	st, err := m.StatsCtx(context.Background())
	if err != nil {
		t.Fatalf("stats after replica death: %v", err)
	}
	if st.Puts < int64(len(keys)) || st.ClusterNodes != 3 {
		t.Fatalf("stats after replica death: puts=%d nodes=%d, want >= %d puts from the primaries and the 3-node map", st.Puts, st.ClusterNodes, len(keys))
	}
}

// TestClusterAnySeedBootstrap pins discovery: a client pointed at any
// single member — not the full seed list — learns the whole topology from
// that member's CLUSTERMAP and routes writes to every node.
func TestClusterAnySeedBootstrap(t *testing.T) {
	target, regs, _ := startTestCluster(t, mlkv.ASP, false)
	addrs := strings.Split(strings.TrimPrefix(target, mlkv.Scheme), ",")
	emb := make([]float32, 4)
	for i, addr := range addrs {
		db, err := mlkv.Connect(mlkv.Scheme+addr, mlkv.WithConns(2))
		if err != nil {
			t.Fatalf("seed %s: %v", addr, err)
		}
		m, err := db.Open("seed", 4, mlkv.WithStalenessBound(mlkv.ASP))
		if err != nil {
			t.Fatalf("seed %s: %v", addr, err)
		}
		st, err := m.StatsCtx(context.Background())
		if err != nil {
			t.Fatalf("seed %s: %v", addr, err)
		}
		if st.ClusterNodes != 3 {
			t.Fatalf("seed %s discovered %d nodes, want 3", addr, st.ClusterNodes)
		}
		if st.ClusterEpoch == 0 {
			t.Fatalf("seed %s reports epoch 0", addr)
		}
		if i == 0 {
			// Enough keys that an even hash split leaves no node silent.
			s, err := m.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 64; k++ {
				if err := s.Put(k, emb); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
		}
		m.Close()
		db.Close()
	}
	for id, reg := range regs {
		if st := clusterModelStats(t, reg, "seed"); st.Puts == 0 {
			t.Fatalf("node %s never saw a put from the single-seed client", id)
		}
	}
}

// TestAPIOpenValidation pins the public-surface validation errors.
func TestAPIOpenValidation(t *testing.T) {
	withTargets(t, func(t *testing.T, db *mlkv.DB) {
		if _, err := db.Open("", 8); err == nil {
			t.Fatal("empty id accepted")
		}
		if _, err := db.Open("x", 0); err == nil {
			t.Fatal("zero dim accepted")
		}
	})
	if _, err := mlkv.Connect(""); err == nil {
		t.Fatal("empty target accepted")
	}
	if _, err := mlkv.Connect(mlkv.Scheme); err == nil {
		t.Fatal("empty remote address accepted")
	}
}
