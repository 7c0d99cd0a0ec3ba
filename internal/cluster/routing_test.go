package cluster_test

// The routing suite: RSession's four pieces — the retry loop, grouping,
// the per-group exchange and the fan-out — driven directly over in-process
// servers, with internal/faultnet in front of the nodes a test kills. The
// root package's TestCluster* suites reach the same code through the
// public API; the cases here are the ones only visible one layer down.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/faultnet"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/stats"
)

const (
	testDim   = 4
	testVS    = testDim * 4
	testModel = "routed"
)

// countingState counts map encodings served: every CLUSTERMAP probe and
// every NOT_OWNER redirect asks the node state for one.
type countingState struct {
	*cluster.State
	encodes atomic.Int64
}

func (c *countingState) Encoded() []byte {
	c.encodes.Add(1)
	return c.State.Encoded()
}

// testNode is one in-process cluster member.
type testNode struct {
	reg   *server.Registry
	st    *countingState
	proxy *faultnet.Proxy // nil unless the node was started proxied
}

// modelStats is the served model's server-side counters on this node.
func (n *testNode) modelStats(t *testing.T) stats.Counters {
	t.Helper()
	for _, m := range n.reg.Models() {
		if m.ID() == testModel {
			return m.Stats()
		}
	}
	t.Fatalf("node %s does not serve %q", n.reg.Name(), testModel)
	return stats.Counters{}
}

// startCluster serves every member of specs (Addr is filled in here) on a
// loopback listener and returns the epoch-1 map plus the nodes by id. Nodes
// named in proxied advertise a faultnet proxy instead of their listener, so
// a test can partition them.
func startCluster(t *testing.T, specs []cluster.Node, proxied ...string) (*cluster.Map, map[string]*testNode) {
	t.Helper()
	lns := make([]net.Listener, len(specs))
	nodes := make(map[string]*testNode, len(specs))
	for i := range specs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], specs[i].Addr = ln, ln.Addr().String()
		n := &testNode{}
		for _, id := range proxied {
			if id == specs[i].ID {
				if n.proxy, err = faultnet.New(specs[i].Addr); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.proxy.Close() })
				specs[i].Addr = n.proxy.Addr()
			}
		}
		nodes[specs[i].ID] = n
	}
	m, err := cluster.BuildMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		n, dir := nodes[spec.ID], t.TempDir()
		n.reg = server.NewRegistry(server.RegistryConfig{
			Store: kv.ShardedConfig{
				Dir: dir, RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
				StalenessBound: faster.BoundAsync,
			},
			Name: spec.ID,
		})
		st, err := cluster.NewState(spec.ID, m)
		if err != nil {
			t.Fatal(err)
		}
		st.EnableReplication()
		n.st = &countingState{State: st}
		srv := server.New(server.Config{Registry: n.reg, Cluster: n.st})
		serveErr := make(chan error, 1)
		go func(ln net.Listener) { serveErr <- srv.Serve(ln) }(lns[i])
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx) // a partitioned node's drain may time out
			<-serveErr
			st.Close()
			n.reg.Close()
		})
	}
	return m, nodes
}

// openRouted dials the map's first node as the seed, builds a router over m
// and opens testModel under bound.
func openRouted(t *testing.T, m *cluster.Map, bound int64, replicas bool) (*cluster.Router, *cluster.RModel) {
	t.Helper()
	copts := client.Options{Conns: 2, DialTimeout: time.Second}
	seed, err := client.Dial(context.Background(), m.Nodes[0].Addr, copts)
	if err != nil {
		t.Fatal(err)
	}
	r := cluster.NewRouter(m, m.Nodes[0].Addr, seed, cluster.RouterOptions{Client: copts, ReadReplicas: replicas})
	t.Cleanup(func() { r.Close() })
	rm, err := r.OpenModel(context.Background(), client.OpenSpec{ID: testModel, Dim: testDim, Bound: bound})
	if err != nil {
		t.Fatal(err)
	}
	return r, rm
}

func newSession(t *testing.T, rm *cluster.RModel) *cluster.RSession {
	t.Helper()
	s, err := rm.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func routerStats(r *cluster.Router) stats.Counters {
	var c stats.Counters
	r.FillStats(&c)
	return c
}

// keysOwnedBy returns the first n keys (counting up from 0) m assigns to id.
func keysOwnedBy(m *cluster.Map, id string, n int) []uint64 {
	var out []uint64
	for k := uint64(0); len(out) < n; k++ {
		if m.Owner(k).ID == id {
			out = append(out, k)
		}
	}
	return out
}

// interleave alternates a's and b's keys: a[0], b[0], a[1], b[1], …
func interleave(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	for i := range a {
		out = append(out, a[i], b[i])
	}
	return out
}

// valsFor tags every value with its key so a read-back proves which record
// answered.
func valsFor(keys []uint64) []byte {
	vals := make([]byte, len(keys)*testVS)
	for i, k := range keys {
		for j := 0; j < testVS; j++ {
			vals[i*testVS+j] = byte(k) + byte(j)
		}
	}
	return vals
}

func checkRead(t *testing.T, keys []uint64, vals []byte, found []bool) {
	t.Helper()
	want := valsFor(keys)
	for i, k := range keys {
		if !found[i] {
			t.Fatalf("key %d not found", k)
		}
		if string(vals[i*testVS:(i+1)*testVS]) != string(want[i*testVS:(i+1)*testVS]) {
			t.Fatalf("key %d read back %v, want %v", k, vals[i*testVS:(i+1)*testVS], want[i*testVS:(i+1)*testVS])
		}
	}
}

func twoPrimaries() []cluster.Node {
	return []cluster.Node{
		{ID: "n0", Role: cluster.RolePrimary},
		{ID: "n1", Role: cluster.RolePrimary},
	}
}

// TestRoutingAllocOverhead is the routing layer's allocation gate: a
// steady-state 256-key batch across two primaries may allocate at most
// 2×groups+1 more than the same two pre-grouped frames sent straight
// through each node's client.Session. Both sides run against the same
// in-process servers, so the servers' own allocations cancel.
func TestRoutingAllocOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	m, _ := startCluster(t, twoPrimaries())
	_, rm := openRouted(t, m, faster.BoundAsync, false)
	rs := newSession(t, rm)
	ctx := context.Background()

	const batch, groups = 256, 2
	keys := interleave(keysOwnedBy(m, "n0", batch/2), keysOwnedBy(m, "n1", batch/2))
	vals, found := valsFor(keys), make([]bool, batch)
	if err := rs.PutBatchCtx(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}

	// The direct side: one plain session per node and its keys pre-grouped.
	type nodeFrames struct {
		ss    *client.Session
		keys  []uint64
		vals  []byte
		found []bool
	}
	var directs []nodeFrames
	for _, id := range []string{"n0", "n1"} {
		c, err := client.Dial(context.Background(), m.Node(id).Addr, client.Options{Conns: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cm, err := c.OpenModel(ctx, client.OpenSpec{ID: testModel, Dim: testDim, Bound: faster.BoundAsync})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := cm.NewSessionCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gk := keysOwnedBy(m, id, batch/2)
		directs = append(directs, nodeFrames{ss, gk, valsFor(gk), make([]bool, len(gk))})
	}

	measure := func(what string, routed, direct func() error) {
		run := func(f func() error) float64 {
			for i := 0; i < 8; i++ { // settle pools and scratch growth
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(100, func() {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			})
		}
		d, r := run(direct), run(routed)
		t.Logf("%s(%d keys, %d groups): routed %.0f allocs/op, direct frames %.0f", what, batch, groups, r, d)
		if r > d+2*groups+1 {
			t.Fatalf("%s: routing adds %.0f allocs/op over the direct frames, budget %d", what, r-d, 2*groups+1)
		}
	}
	measure("GetBatchCtx",
		func() error { return rs.GetBatchCtx(ctx, keys, vals, found) },
		func() error {
			for _, d := range directs {
				if err := d.ss.GetBatchCtx(ctx, d.keys, d.vals, d.found); err != nil {
					return err
				}
			}
			return nil
		})
	checkRead(t, keys, vals, found)
	measure("PutBatchCtx",
		func() error { return rs.PutBatchCtx(ctx, keys, vals) },
		func() error {
			for _, d := range directs {
				if err := d.ss.PutBatchCtx(ctx, d.keys, d.vals); err != nil {
					return err
				}
			}
			return nil
		})
}

// TestHungFirstDialStallsOnlyItsNode: while the first dial to one node
// hangs (its proxy accepts the connect and never answers HELLO), the first
// contact with another node does not wait behind it.
func TestHungFirstDialStallsOnlyItsNode(t *testing.T) {
	m, nodes := startCluster(t, []cluster.Node{
		{ID: "n0", Role: cluster.RolePrimary},
		{ID: "n1", Role: cluster.RolePrimary},
		{ID: "n2", Role: cluster.RolePrimary},
	}, "n1")
	copts := client.Options{Conns: 1, DialTimeout: 2 * time.Second}
	seed, err := client.Dial(context.Background(), m.Nodes[0].Addr, copts)
	if err != nil {
		t.Fatal(err)
	}
	r := cluster.NewRouter(m, m.Nodes[0].Addr, seed, cluster.RouterOptions{Client: copts})
	defer r.Close()
	hung := nodes["n1"].proxy
	hung.Blackhole()
	hungDone := make(chan error, 1)
	go func() {
		_, err := r.Pool(context.Background(), m.Nodes[1].Addr)
		hungDone <- err
	}()
	for deadline := time.Now().Add(time.Second); hung.Accepted() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the dial to the blackholed node never connected")
		}
	}
	start := time.Now()
	if _, err := r.Pool(context.Background(), m.Nodes[2].Addr); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("first contact with a healthy node took %v behind a hung dial to another", took)
	}
	if err := <-hungDone; err == nil {
		t.Fatal("a dial to a blackholed node succeeded")
	}
}

// TestRedirectOutranksTransportFailure pins the fan-out's error ranking.
// The router holds a stale three-primary map; the cluster has since moved
// to two primaries (n2 demoted) and n2 has died. One batch then sees n2's
// group fail at transport — first in group order — and n1's answer
// NOT_OWNER. Following the redirect first fixes both in one retry; ranking
// the transport failure first would refetch the map instead and never
// count a redirect.
func TestRedirectOutranksTransportFailure(t *testing.T) {
	m, nodes := startCluster(t, []cluster.Node{
		{ID: "n0", Role: cluster.RolePrimary},
		{ID: "n1", Role: cluster.RolePrimary},
		{ID: "n2", Role: cluster.RolePrimary},
	}, "n2")
	r, rm := openRouted(t, m, faster.BoundAsync, false)
	rs := newSession(t, rm)
	ctx := context.Background()

	// n2's key leads the batch so its group is the fan-out's first; n1's
	// keys must include one the new map hands to n0.
	next := m.Clone()
	next.Epoch++
	next.Node("n0").Ranges = []cluster.Range{{Start: 0, End: math.MaxUint64 / 2}}
	next.Node("n1").Ranges = []cluster.Range{{Start: math.MaxUint64/2 + 1, End: math.MaxUint64}}
	*next.Node("n2") = cluster.Node{ID: "n2", Addr: m.Node("n2").Addr, Role: cluster.RoleReplica, PrimaryID: "n0"}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	var moved []uint64 // owned by n1 in the stale map, by n0 in the new one
	for k := uint64(0); len(moved) < 4; k++ {
		if m.Owner(k).ID == "n1" && next.Owner(k).ID == "n0" {
			moved = append(moved, k)
		}
	}
	keys := append(keysOwnedBy(m, "n2", 4), append(moved, keysOwnedBy(m, "n0", 4)...)...)
	vals, found := valsFor(keys), make([]bool, len(keys))
	if err := rs.PutBatchCtx(ctx, keys, vals); err != nil { // attaches a session on every node
		t.Fatal(err)
	}

	for _, id := range []string{"n0", "n1"} {
		if !nodes[id].st.Adopt(next) {
			t.Fatalf("%s refused the epoch-%d map", id, next.Epoch)
		}
	}
	nodes["n2"].proxy.Partition()

	if err := rs.GetBatchCtx(ctx, keys, vals, found); err != nil {
		t.Fatalf("batch over a stale map with a dead node: %v", err)
	}
	if got := routerStats(r); got.ClusterRedirects != 1 || got.ClusterEpoch != int64(next.Epoch) {
		t.Fatalf("redirects=%d epoch=%d, want the one redirect followed to epoch %d",
			got.ClusterRedirects, got.ClusterEpoch, next.Epoch)
	}
	// n0's own keys never moved: they must read back whatever else happened.
	checkRead(t, keys[8:], vals[8*testVS:], found[8:])
}

// TestReplicaDiesMidRead pins the replica fallback on every read path: a
// replica that served a session and then dies turns that session's reads
// into primary reads — single key, a batch one replica would have served
// whole, and a fan-out with the replica as one group — never into errors,
// and ReplicaReads counts nothing it did not serve.
func TestReplicaDiesMidRead(t *testing.T) {
	m, nodes := startCluster(t, []cluster.Node{
		{ID: "n0", Role: cluster.RolePrimary},
		{ID: "n1", Role: cluster.RolePrimary},
		{ID: "n2", Role: cluster.RoleReplica, PrimaryID: "n0"},
	}, "n2")
	r, rm := openRouted(t, m, faster.BoundAsync, true)
	ctx := context.Background()

	onN0, onN1 := keysOwnedBy(m, "n0", 8), keysOwnedBy(m, "n1", 8)
	all := interleave(onN0, onN1)
	cases := []struct {
		name string
		keys []uint64
		rs   *cluster.RSession
	}{
		{"single-key", onN0[:1], newSession(t, rm)},
		{"single-group", onN0, newSession(t, rm)},
		{"fan-out", all, newSession(t, rm)},
	}
	if err := cases[0].rs.PutBatchCtx(ctx, all, valsFor(all)); err != nil {
		t.Fatal(err)
	}
	// Warm every session through the replica, so each holds a live replica
	// session when it dies — and prove the replica really served.
	vals, found := make([]byte, len(all)*testVS), make([]bool, len(all))
	deadline := time.Now().Add(5 * time.Second)
	for _, tc := range cases {
		for before := routerStats(r).ReplicaReads; routerStats(r).ReplicaReads == before; {
			if time.Now().After(deadline) {
				t.Fatal("the replica never served a read; the fallback would be vacuous")
			}
			if err := tc.rs.GetBatchCtx(ctx, all, vals, found); err != nil {
				t.Fatal(err)
			}
		}
	}

	nodes["n2"].proxy.Partition()
	served := routerStats(r).ReplicaReads
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals, found := make([]byte, len(tc.keys)*testVS), make([]bool, len(tc.keys))
			var err error
			if len(tc.keys) == 1 {
				found[0], err = getOne(ctx, tc.rs, tc.keys[0], vals)
			} else {
				err = tc.rs.GetBatchCtx(ctx, tc.keys, vals, found)
			}
			if err != nil {
				t.Fatalf("read after the replica died: %v", err)
			}
			checkRead(t, tc.keys, vals, found)
		})
	}
	if got := routerStats(r).ReplicaReads; got != served {
		t.Fatalf("ReplicaReads went %d → %d across reads a dead replica cannot have served", served, got)
	}
}

// TestBlockingBatchKeepsCallerOrder pins the serial gate one level up: a
// batch spanning two nodes under a blocking bound is issued as runs of
// consecutive same-owner keys in caller order. With the owners interleaved
// every run is one key. Another session holds key #5's staleness tokens, so
// the batch stalls there until its deadline — and the node that does not
// own key #5 must by then have served exactly its keys before position 5,
// as one-key GETBATCH frames, and none after. With the keys ordered by
// owner the same batch costs each node exactly one frame.
func TestBlockingBatchKeepsCallerOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bound int64
	}{{"BSP", 0}, {"SSP-2", 2}} {
		bound := tc.bound
		t.Run(tc.name, func(t *testing.T) {
			m, nodes := startCluster(t, twoPrimaries())
			_, rm := openRouted(t, m, bound, false)
			holder, rs := newSession(t, rm), newSession(t, rm)
			ctx := context.Background()

			keys := interleave(keysOwnedBy(m, "n0", 4), keysOwnedBy(m, "n1", 4))
			vals, found := valsFor(keys), make([]bool, len(keys))
			if err := rs.PutBatchCtx(ctx, keys, vals); err != nil {
				t.Fatal(err)
			}
			const stall = 5 // owned by n1; n0 owns positions 0, 2, 4 before it
			for i := int64(0); i <= bound; i++ {
				if _, err := getOne(ctx, holder, keys[stall], vals[:testVS]); err != nil {
					t.Fatal(err)
				}
			}

			before := nodes["n0"].modelStats(t)
			short, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
			defer cancel()
			err := rs.GetBatchCtx(short, keys, vals, found)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("batch stalled on a held key returned %v, want the deadline", err)
			}
			got := nodes["n0"].modelStats(t).Sub(before)
			if got.Gets != 3 || got.BatchGets != 3 {
				t.Fatalf("n0 served %d gets in %d batch frames, want its 3 keys ahead of the stall, one frame each",
					got.Gets, got.BatchGets)
			}

			// Owner runs: every n0 key, then every n1 key — two runs, one
			// frame per node.
			runs := append(keysOwnedBy(m, "n0", 8)[4:], keysOwnedBy(m, "n1", 8)[4:]...)
			vals, found = valsFor(runs), make([]bool, len(runs))
			if err := rs.PutBatchCtx(ctx, runs, vals); err != nil {
				t.Fatal(err)
			}
			before0, before1 := nodes["n0"].modelStats(t), nodes["n1"].modelStats(t)
			if err := rs.GetBatchCtx(ctx, runs, vals, found); err != nil {
				t.Fatal(err)
			}
			checkRead(t, runs, vals, found)
			for id, before := range map[string]stats.Counters{"n0": before0, "n1": before1} {
				if got := nodes[id].modelStats(t).Sub(before); got.Gets != 4 || got.BatchGets != 1 {
					t.Fatalf("%s served %d gets in %d batch frames, want its run of 4 keys as one frame",
						id, got.Gets, got.BatchGets)
				}
			}
		})
	}
}

// TestOwnerRetryBudget pins the loop's owner-retry leg against a dead
// primary that nothing promotes over: a cancelled context cuts the backoff
// short with the plain failure; a read of a BSP model, which may not use a
// replica, gives up with ErrNoLiveOwner after refetching the map exactly
// ownerRetryBudget times (each refetch probes the one surviving member
// once); and the same read of an ASP model spends the same budget, then
// degrades to the replica instead of failing — a single key and a batch
// alike.
func TestOwnerRetryBudget(t *testing.T) {
	m, nodes := startCluster(t, []cluster.Node{
		{ID: "n0", Role: cluster.RolePrimary},
		{ID: "n1", Role: cluster.RoleReplica, PrimaryID: "n0"},
	}, "n0")
	r, rm := openRouted(t, m, faster.BoundAsync, false)
	rs := newSession(t, rm)
	bsp, err := r.OpenModel(context.Background(), client.OpenSpec{ID: testModel + "-bsp", Dim: testDim, Bound: 0})
	if err != nil {
		t.Fatal(err)
	}
	bs := newSession(t, bsp)
	keys, batch := []uint64{7}, []uint64{11, 12, 13, 14}
	val, got := valsFor(keys), make([]byte, testVS)
	if err := putOne(context.Background(), rs, keys[0], val); err != nil {
		t.Fatal(err)
	}
	if err := rs.PutBatchCtx(context.Background(), batch, valsFor(batch)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); nodes["n1"].reg.ReplWatermark() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the replica never applied the write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	nodes["n0"].proxy.Partition()

	short, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = putOne(short, rs, keys[0], val)
	if err == nil || errors.Is(err, cluster.ErrNoLiveOwner) {
		t.Fatalf("put under a 60ms deadline returned %v, want the plain failure", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a 60ms deadline took %v to surface: the backoff ignored it", d)
	}

	probes := nodes["n1"].st.encodes.Load()
	if _, err = getOne(context.Background(), bs, keys[0], got); !errors.Is(err, cluster.ErrNoLiveOwner) {
		t.Fatalf("BSP read of a dead, unpromoted primary returned %v, want ErrNoLiveOwner", err)
	}
	if n := nodes["n1"].st.encodes.Load() - probes; n != cluster.OwnerRetryBudget {
		t.Fatalf("the survivor answered %d map refetches, want exactly the budget of %d", n, cluster.OwnerRetryBudget)
	}

	found, err := getOne(context.Background(), rs, keys[0], got)
	if err != nil {
		t.Fatalf("ASP read with a live replica and a dead primary: %v", err)
	}
	checkRead(t, keys, got, []bool{found})
	if n := routerStats(r).ReplicaReads; n != 1 {
		t.Fatalf("ReplicaReads = %d, want the one degraded read", n)
	}

	bvals, bfound := make([]byte, len(batch)*testVS), make([]bool, len(batch))
	if err := rs.GetBatchCtx(context.Background(), batch, bvals, bfound); err != nil {
		t.Fatalf("ASP batch read with a live replica and a dead primary: %v", err)
	}
	checkRead(t, batch, bvals, bfound)
	if n := routerStats(r).ReplicaReads; n != int64(1+len(batch)) {
		t.Fatalf("ReplicaReads = %d, want %d: the single key and the whole degraded batch", n, 1+len(batch))
	}
}

// TestBlockingBatchRetryBudget pins the owner-retry budget for a blocking
// batch that spans a dead primary and a live one: the batch is one routed
// call, so it gives up after exactly ownerRetryBudget map refetches at the
// survivor, with ErrNoLiveOwner wrapped once — not a per-key budget spent
// inside a retried outer one.
func TestBlockingBatchRetryBudget(t *testing.T) {
	m, nodes := startCluster(t, twoPrimaries(), "n0")
	_, rm := openRouted(t, m, 0, false)
	rs := newSession(t, rm)
	ctx := context.Background()
	keys := interleave(keysOwnedBy(m, "n0", 2), keysOwnedBy(m, "n1", 2))
	vals, found := valsFor(keys), make([]bool, len(keys))
	if err := rs.PutBatchCtx(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	nodes["n0"].proxy.Partition()

	probes := nodes["n1"].st.encodes.Load()
	err := rs.GetBatchCtx(ctx, keys, vals, found)
	if !errors.Is(err, cluster.ErrNoLiveOwner) {
		t.Fatalf("BSP batch over a dead, unpromoted primary returned %v, want ErrNoLiveOwner", err)
	}
	if n := strings.Count(err.Error(), cluster.ErrNoLiveOwner.Error()); n != 1 {
		t.Fatalf("ErrNoLiveOwner wrapped %d times, want once: %v", n, err)
	}
	if n := nodes["n1"].st.encodes.Load() - probes; n != cluster.OwnerRetryBudget {
		t.Fatalf("the survivor answered %d map refetches, want exactly the budget of %d", n, cluster.OwnerRetryBudget)
	}
}

// TestDeadReplicaLosesItsLag pins RModel.lagOf's promise under SSP: a
// replica that cannot report its lag is held out of rotation — it does not
// keep the lag it advertised before it died — and is admitted again once it
// answers.
func TestDeadReplicaLosesItsLag(t *testing.T) {
	m, nodes := startCluster(t, []cluster.Node{
		{ID: "n0", Role: cluster.RolePrimary},
		{ID: "n1", Role: cluster.RoleReplica, PrimaryID: "n0"},
	}, "n1")
	const bound = 4
	_, rm := openRouted(t, m, bound, true)
	ctx, rep := context.Background(), m.Node("n1")
	admissible := func() bool { return rm.ReplicaAdmissible(ctx, bound, rep) }
	waitFor := func(what string, want bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); admissible() != want; {
			if time.Now().After(deadline) {
				t.Fatalf("replica never became %s", what)
			}
			time.Sleep(cluster.LagRefresh / 4)
		}
	}
	waitFor("admissible at lag 0", true)
	nodes["n1"].proxy.Partition()
	waitFor("inadmissible after dying at lag 0", false)
	nodes["n1"].proxy.Heal()
	waitFor("admissible again once reachable", true)
}

// TestLookaheadFollowsRedirect pins the advisory path through the shared
// loop: a hint routed by a stale map is redirected, adopts the new map and
// lands on the new owner — where before it was dropped, and kept being
// dropped until some data operation refreshed the map.
func TestLookaheadFollowsRedirect(t *testing.T) {
	m, nodes := startCluster(t, twoPrimaries())
	stale := m.Clone()
	stale.Epoch = 0
	stale.Nodes[0].Ranges, stale.Nodes[1].Ranges = stale.Nodes[1].Ranges, stale.Nodes[0].Ranges
	r, rm := openRouted(t, stale, faster.BoundAsync, false)
	rs := newSession(t, rm)

	keys := keysOwnedBy(m, "n1", 8) // the stale map sends these to n0
	if _, err := rs.LookaheadCtx(context.Background(), keys); err != nil {
		t.Fatalf("lookahead over a stale map: %v", err)
	}
	if got := routerStats(r); got.ClusterRedirects != 1 || got.ClusterEpoch != int64(m.Epoch) {
		t.Fatalf("redirects=%d epoch=%d, want one redirect followed to epoch %d", got.ClusterRedirects, got.ClusterEpoch, m.Epoch)
	}
	if n0, n1 := nodes["n0"].modelStats(t).LookaheadCalls, nodes["n1"].modelStats(t).LookaheadCalls; n0 != 0 || n1 != 1 {
		t.Fatalf("hint frames served: n0=%d n1=%d, want only the true owner n1 to take one", n0, n1)
	}
}

// getOne, peekOne and putOne send one key as a batch of one: a routed
// session has no single-key read or put.
func getOne(ctx context.Context, rs *cluster.RSession, key uint64, dst []byte) (bool, error) {
	found := []bool{false}
	err := rs.GetBatchCtx(ctx, []uint64{key}, dst, found)
	return found[0], err
}

func peekOne(ctx context.Context, rs *cluster.RSession, key uint64, dst []byte) (bool, error) {
	found := []bool{false}
	err := rs.PeekBatchCtx(ctx, []uint64{key}, dst, found)
	return found[0], err
}

func putOne(ctx context.Context, rs *cluster.RSession, key uint64, val []byte) error {
	return rs.PutBatchCtx(ctx, []uint64{key}, val)
}

// f32Val encodes v in every slot of one testDim value.
func f32Val(v float32) []byte {
	b := make([]byte, testVS)
	for i := 0; i < testDim; i++ {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return b
}

var unitGrad = []float32{1, 1, 1, 1}

// TestApplyFollowsRedirectOnce pins APPLY's one safe re-send: a NOT_OWNER
// answer proves the step did not run, so a frame routed by a stale map
// follows the redirect and applies exactly once, on the true owner only.
func TestApplyFollowsRedirectOnce(t *testing.T) {
	m, nodes := startCluster(t, twoPrimaries())
	ctx := context.Background()
	key := keysOwnedBy(m, "n1", 1)[0]
	_, fresh := openRouted(t, m, faster.BoundAsync, false)
	if err := putOne(ctx, newSession(t, fresh), key, f32Val(10)); err != nil {
		t.Fatal(err)
	}

	stale := m.Clone()
	stale.Epoch = 0
	stale.Nodes[0].Ranges, stale.Nodes[1].Ranges = stale.Nodes[1].Ranges, stale.Nodes[0].Ranges
	r, rm := openRouted(t, stale, faster.BoundAsync, false)
	rs := newSession(t, rm)
	found, err := rs.ApplyCtx(ctx, key, 1, unitGrad) // the stale map sends it to n0
	if err != nil || !found {
		t.Fatalf("apply over a stale map: found=%v err=%v", found, err)
	}
	if got := routerStats(r); got.ClusterRedirects != 1 || got.ClusterEpoch != int64(m.Epoch) {
		t.Fatalf("redirects=%d epoch=%d, want one redirect followed to epoch %d", got.ClusterRedirects, got.ClusterEpoch, m.Epoch)
	}
	if n0, n1 := nodes["n0"].modelStats(t).RMWs, nodes["n1"].modelStats(t).RMWs; n0 != 0 || n1 != 1 {
		t.Fatalf("engine RMWs: n0=%d n1=%d, want the step on the true owner n1 only, once", n0, n1)
	}
	got := make([]byte, testVS)
	if ok, err := peekOne(ctx, rs, key, got); err != nil || !ok || !bytes.Equal(got, f32Val(9)) {
		t.Fatalf("after one unit step from 10: found=%v err=%v value %v", ok, err, got)
	}
}

// TestApplyAtMostOnce cuts the connection after an APPLY is delivered and
// before its response: the call must surface the lost acknowledgement — a
// gradient step is not idempotent, so the owner-retry loop that re-sends
// every other frame against a refreshed map must leave this one alone —
// and the key has stepped exactly once, however reachable the owner is
// again by then.
func TestApplyAtMostOnce(t *testing.T) {
	m, nodes := startCluster(t, []cluster.Node{{ID: "n0", Role: cluster.RolePrimary}}, "n0")
	_, rm := openRouted(t, m, faster.BoundAsync, false)
	rs := newSession(t, rm)
	ctx := context.Background()
	const key = 7
	if err := putOne(ctx, rs, key, f32Val(10)); err != nil {
		t.Fatal(err)
	}

	// Every forwarded chunk now waits in the proxy: the request reaches the
	// server late, and the response is still held when the cut comes.
	n0 := nodes["n0"]
	n0.proxy.SetDelay(400 * time.Millisecond)
	applied := n0.modelStats(t).RMWs
	errc := make(chan error, 1)
	go func() {
		_, err := rs.ApplyCtx(ctx, key, 1, unitGrad)
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); n0.modelStats(t).RMWs == applied; {
		if time.Now().After(deadline) {
			t.Fatal("the APPLY never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	n0.proxy.Partition() // the step ran; its response dies in the proxy
	n0.proxy.Heal()      // and the owner is reachable again for any retry

	err := <-errc
	var ue *client.UnackedError
	if !errors.As(err, &ue) {
		t.Fatalf("apply whose response was cut returned %v, want a *client.UnackedError", err)
	}
	if errors.Is(err, cluster.ErrNoLiveOwner) {
		t.Fatalf("an unacknowledged apply was retried to exhaustion: %v", err)
	}
	if n := n0.modelStats(t).RMWs - applied; n != 1 {
		t.Fatalf("the server ran %d steps for one call, want exactly 1", n)
	}
	got := make([]byte, testVS)
	if ok, err := peekOne(ctx, rs, key, got); err != nil || !ok || !bytes.Equal(got, f32Val(9)) {
		t.Fatalf("after one delivered unit step from 10: found=%v err=%v value %v", ok, err, got)
	}
}
