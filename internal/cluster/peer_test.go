package cluster_test

// The peer suite: every node-to-node call — join, map gossip, leave, a
// router's first contact and the replication stream — rides
// internal/client. The cases here pin how long each may take against a
// blackholed peer (internal/faultnet), that a peer's refusal comes back as
// a *client.ServerError, and the replication stream's reset rule.

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/faultnet"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/wire"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func newRegistry(t *testing.T, name string) *server.Registry {
	t.Helper()
	reg := server.NewRegistry(server.RegistryConfig{
		Store: kv.ShardedConfig{
			Dir: t.TempDir(), RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
			StalenessBound: faster.BoundAsync,
		},
		Name: name,
	})
	t.Cleanup(func() { reg.Close() })
	return reg
}

func newState(t *testing.T, self string, m *cluster.Map) *cluster.State {
	t.Helper()
	st, err := cluster.NewState(self, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// serve runs a server for reg on ln, clustered through st unless st is
// nil. stop shuts it down; it runs at cleanup too.
func serve(t *testing.T, ln net.Listener, reg *server.Registry, st *cluster.State) (stop func()) {
	t.Helper()
	cfg := server.Config{Registry: reg}
	if st != nil {
		cfg.Cluster = st
	}
	srv := server.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = sync.OnceFunc(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	t.Cleanup(stop)
	return stop
}

// blackhole is a peer address that accepts connections and never answers.
func blackhole(t *testing.T) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.New("127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	p.Blackhole()
	return p
}

// primaryWithReplica is the map of a primary n0 (never dialled) and its
// one replica n1 at replicaAddr.
func primaryWithReplica(t *testing.T, replicaAddr string) *cluster.Map {
	t.Helper()
	m, err := cluster.BuildMap([]cluster.Node{
		{ID: "n0", Addr: "127.0.0.1:1", Role: cluster.RolePrimary},
		{ID: "n1", Addr: replicaAddr, Role: cluster.RoleReplica, PrimaryID: "n0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// holds reports whether model id on the server at addr holds key.
func holds(t *testing.T, addr, id string, key uint64) bool {
	t.Helper()
	ctx := context.Background()
	c, err := client.Dial(ctx, addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := c.OpenModel(ctx, client.OpenSpec{ID: id, Dim: testDim, Bound: wire.BoundUnset})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSessionCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	found := []bool{false}
	if err := s.PeekBatchCtx(ctx, []uint64{key}, make([]byte, testVS), found); err != nil {
		t.Fatal(err)
	}
	return found[0]
}

// TestCloseEndsReplicaDialInFlight: a primary's replication stream stuck
// in the HELLO of a blackholed replica must not hold up State.Close. The
// sender's dial runs under the stream's ctx, which close cancels.
func TestCloseEndsReplicaDialInFlight(t *testing.T) {
	hole := blackhole(t)
	st, err := cluster.NewState("n0", primaryWithReplica(t, hole.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	st.EnableReplication()
	st.Replicate(testModel, testDim, faster.BoundAsync, wire.ReplPut, []uint64{1}, make([]byte, testVS))
	waitUntil(t, "the replica dial to connect", func() bool { return hole.Accepted() > 0 })
	start := time.Now()
	st.Close()
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("State.Close took %v behind a replica HELLO in flight", took)
	}
}

// TestAnnounceLeaveTellsPeersAtOnce: a leave goes to every peer in
// parallel, so two blackholed peers cost one timeout in total, and the
// live peer tombstones the leaver.
func TestAnnounceLeaveTellsPeersAtOnce(t *testing.T) {
	ln := listen(t)
	m, err := cluster.BuildMap([]cluster.Node{
		{ID: "n0", Addr: "127.0.0.1:1", Role: cluster.RolePrimary},
		{ID: "n1", Addr: blackhole(t).Addr(), Role: cluster.RolePrimary},
		{ID: "n2", Addr: blackhole(t).Addr(), Role: cluster.RolePrimary},
		{ID: "n3", Addr: ln.Addr().String(), Role: cluster.RolePrimary},
	})
	if err != nil {
		t.Fatal(err)
	}
	live := newState(t, "n3", m)
	live.StartHealth(cluster.HealthConfig{})
	serve(t, ln, newRegistry(t, "n3"), live)

	const timeout = 300 * time.Millisecond
	start := time.Now()
	cluster.AnnounceLeave(m, "n0", timeout)
	if took := time.Since(start); took > timeout+100*time.Millisecond {
		t.Fatalf("AnnounceLeave took %v for two blackholed peers at a %v timeout", took, timeout)
	}
	if !live.PeerLeft("n0") {
		t.Fatal("the live peer holds no tombstone for the leaver")
	}
}

// TestFirstContactKeepsCallerDeadline: a router's first contact with a
// node dials under the caller's ctx, so a blackholed node costs the caller
// its own deadline, not DialTimeout. With the caller's ctx live, the
// dial's own DialTimeout running out is the host's failure — one the
// router retries and fails over on — not the caller's deadline.
func TestFirstContactKeepsCallerDeadline(t *testing.T) {
	m, nodes := startCluster(t, twoPrimaries(), "n1")
	copts := client.Options{Conns: 1, DialTimeout: 300 * time.Millisecond}
	seedAddr := m.Node("n0").Addr
	seed, err := client.Dial(context.Background(), seedAddr, copts)
	if err != nil {
		t.Fatal(err)
	}
	r := cluster.NewRouter(m, seedAddr, seed, cluster.RouterOptions{Client: copts})
	defer r.Close()
	nodes["n1"].proxy.Blackhole()
	addr := m.Node("n1").Addr

	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = r.Pool(ctx, addr)
	if took := time.Since(start); err == nil || took > deadline+50*time.Millisecond {
		t.Fatalf("first contact with a blackholed node: %v after %v, want a failure by the caller's %v deadline", err, took, deadline)
	}

	_, err = r.Pool(context.Background(), addr)
	if err == nil || !cluster.TransportFailure(err) {
		t.Fatalf("a first contact that outlived DialTimeout reads as %v (transport failure %v), want a transport failure",
			err, cluster.TransportFailure(err))
	}
}

// TestReplicaRestartReopensModel pins the replication stream's reset rule.
// The replica restarts between two records on a fresh server whose handles
// are numbered differently: there the model's old handle names another
// model. A transport failure must drop the pool and every session, and the
// next record must OPEN the model afresh — never re-ATTACH the old handle.
func TestReplicaRestartReopensModel(t *testing.T) {
	lnA := listen(t)
	proxy, err := faultnet.New(lnA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	m := primaryWithReplica(t, proxy.Addr())
	stopA := serve(t, lnA, newRegistry(t, "n1"), newState(t, "n1", m))

	primary := newState(t, "n0", m)
	primary.EnableReplication()
	val := make([]byte, testVS)
	primary.Replicate(testModel, testDim, faster.BoundAsync, wire.ReplPut, []uint64{1}, val)
	addrA := lnA.Addr().String()
	waitUntil(t, "the replica to apply record 1", func() bool { return holds(t, addrA, testModel, 1) })

	stopA()
	regB := newRegistry(t, "n1")
	if _, _, err := regB.Open("other", testDim, 0, faster.BoundAsync); err != nil {
		t.Fatal(err)
	}
	lnB := listen(t)
	serve(t, lnB, regB, newState(t, "n1", m))
	proxy.SetTarget(lnB.Addr().String())

	primary.Replicate(testModel, testDim, faster.BoundAsync, wire.ReplPut, []uint64{2}, val)
	addrB := lnB.Addr().String()
	waitUntil(t, "the restarted replica to apply record 2", func() bool { return holds(t, addrB, testModel, 2) })
	if holds(t, addrB, "other", 2) {
		t.Fatal("record 2 landed in the model that took the old handle's number")
	}
	if n := primary.Stats().ReplicationDropped; n != 0 {
		t.Fatalf("ReplicationDropped = %d across a replica restart, want 0", n)
	}
}

// TestReplicaRefusalIsNotRedialed: a replica that refuses the model's OPEN
// (it holds the model at another dim) costs one dropped record per record,
// on the one connection: a refusal is not transport trouble to redial on.
func TestReplicaRefusalIsNotRedialed(t *testing.T) {
	ln := listen(t)
	proxy, err := faultnet.New(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	m := primaryWithReplica(t, proxy.Addr())
	reg := newRegistry(t, "n1")
	if _, _, err := reg.Open(testModel, 2*testDim, 0, faster.BoundAsync); err != nil {
		t.Fatal(err)
	}
	serve(t, ln, reg, newState(t, "n1", m))

	primary := newState(t, "n0", m)
	primary.EnableReplication()
	for k := uint64(1); k <= 2; k++ {
		primary.Replicate(testModel, testDim, faster.BoundAsync, wire.ReplPut, []uint64{k}, make([]byte, testVS))
	}
	waitUntil(t, "both records to be dropped", func() bool { return primary.Stats().ReplicationDropped == 2 })
	if n := proxy.Accepted(); n != 1 {
		t.Fatalf("the stream opened %d connections to a refusing replica, want 1", n)
	}
}

// TestJoinAndPushMap covers the peer calls' happy paths over loopback
// servers, and a refused sync coming back as a *client.ServerError.
func TestJoinAndPushMap(t *testing.T) {
	ln := listen(t)
	m, err := cluster.BuildMap([]cluster.Node{{ID: "n0", Addr: ln.Addr().String(), Role: cluster.RolePrimary}})
	if err != nil {
		t.Fatal(err)
	}
	seed := newState(t, "n0", m)
	serve(t, ln, newRegistry(t, "n0"), seed)

	joined, err := cluster.JoinCluster(ln.Addr().String(), cluster.Node{ID: "n1", Addr: "127.0.0.1:1", Role: cluster.RolePrimary}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Epoch != m.Epoch+1 || joined.Node("n1") == nil || seed.Map().Epoch != joined.Epoch {
		t.Fatalf("join answered epoch %d with n1=%v; seed at epoch %d, want both at %d",
			joined.Epoch, joined.Node("n1"), seed.Map().Epoch, m.Epoch+1)
	}

	newer := joined.Clone()
	newer.Epoch++
	got, err := cluster.PushMap(ln.Addr().String(), newer, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != newer.Epoch || seed.Map().Epoch != newer.Epoch {
		t.Fatalf("push of epoch %d answered %d, seed at %d", newer.Epoch, got.Epoch, seed.Map().Epoch)
	}

	plain := listen(t)
	serve(t, plain, newRegistry(t, "plain"), nil)
	_, err = cluster.PushMap(plain.Addr().String(), newer, time.Second)
	var refused *client.ServerError
	if !errors.As(err, &refused) {
		t.Fatalf("a sync to an unclustered server returned %v (%T), want a *client.ServerError", err, err)
	}
}
