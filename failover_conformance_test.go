package mlkv_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/faultnet"
	"github.com/llm-db/mlkv-go/internal/server"
)

// Failover conformance: the acceptance tests for the failure-detection /
// replica-promotion subsystem, driven end to end through the public API
// with real TCP servers and the faultnet chaos proxy in between. These are
// the only tests allowed to kill a primary mid-workload.

// failoverHealth is the detector tuning the failover tests run with: tight
// enough that a kill-to-promotion cycle fits a test budget, loose enough
// that a loaded CI machine does not false-positive a healthy peer.
var failoverHealth = cluster.HealthConfig{
	Interval:     25 * time.Millisecond,
	SuspectAfter: 250 * time.Millisecond,
}

// failoverNode is one live node of a failover test cluster.
type failoverNode struct {
	id  string
	dir string // data dir: model stores + the persisted cluster map
	reg *server.Registry
	st  *cluster.State
	srv *server.Server
	ln  net.Listener
	end chan error
}

// startFailoverNode brings one node up the way cmd/mlkv-server does:
// registry, cluster state with persistence + replication + health, server.
func startFailoverNode(t *testing.T, id, dir string, ln net.Listener, m *cluster.Map) *failoverNode {
	t.Helper()
	reg := server.NewRegistry(server.RegistryConfig{Store: testStore(dir, mlkv.ASP), Name: id})
	st, err := cluster.NewState(id, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.EnablePersistence(dir); err != nil {
		t.Fatal(err)
	}
	st.EnableReplication()
	hc := failoverHealth
	hc.Watermark = reg.ReplWatermark
	hc.Logf = t.Logf
	st.StartHealth(hc)
	srv := server.New(server.Config{Registry: reg, Cluster: st})
	n := &failoverNode{id: id, dir: dir, reg: reg, st: st, srv: srv, ln: ln, end: make(chan error, 1)}
	go func() { n.end <- srv.Serve(ln) }()
	return n
}

// stop tears a node down; graceful says whether to drain politely (a
// planned restart) or yank everything (simulated death — the caller cuts
// the network first, so peers see silence, not a FIN).
func (n *failoverNode) stop(graceful bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if graceful {
		_ = n.srv.Shutdown(ctx)
		<-n.end
		n.st.Close()
		return
	}
	n.st.Close()
	_ = n.srv.Shutdown(ctx)
	<-n.end
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failVal is the deterministic value written for key k at generation gen,
// so read-back can prove which acked write survived the failover.
func failVal(k uint64, gen int, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(k)*10 + float32(gen)
	}
	return v
}

// TestClusterFailoverPromotion is the headline acceptance test: kill the
// primary mid-workload through the chaos proxy, and the cluster must
// confirm the death, promote the most-caught-up replica, and serve client
// writes again within the retry budget — with every previously acked
// write still readable, and the old primary demoted (not split-brained)
// when it rejoins from its stale persisted map.
func TestClusterFailoverPromotion(t *testing.T) {
	const dim = 4
	dirs := map[string]string{"n0": t.TempDir(), "n1": t.TempDir(), "n2": t.TempDir()}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// n0 is fronted by the chaos proxy: its advertised address — what
	// peers and clients dial — is the proxy, so severing the proxy is the
	// network half of killing it.
	proxy, err := faultnet.New(ln0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	m, err := cluster.BuildMap([]cluster.Node{
		{ID: "n0", Addr: proxy.Addr(), Role: cluster.RolePrimary},
		{ID: "n1", Addr: ln1.Addr().String(), Role: cluster.RolePrimary},
		{ID: "n2", Addr: ln2.Addr().String(), Role: cluster.RoleReplica, PrimaryID: "n0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n0 := startFailoverNode(t, "n0", dirs["n0"], ln0, m)
	n1 := startFailoverNode(t, "n1", dirs["n1"], ln1, m)
	n2 := startFailoverNode(t, "n2", dirs["n2"], ln2, m)
	defer n1.stop(true)
	defer n2.stop(true)

	db, err := mlkv.Connect(mlkv.Scheme+strings.Join([]string{proxy.Addr(), ln1.Addr().String(), ln2.Addr().String()}, ","),
		mlkv.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mdl, err := db.Open("failover", dim, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer mdl.Close()
	ses, err := mdl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()

	// Workload phase 1: 64 keys across the whole ring, so both primaries
	// own some and the replica has a stream to catch up on.
	const keys = 64
	var n0Owned []uint64
	for k := uint64(0); k < keys; k++ {
		if err := ses.Put(k, failVal(k, 1, dim)); err != nil {
			t.Fatal(err)
		}
		if m.Owner(k).ID == "n0" {
			n0Owned = append(n0Owned, k)
		}
	}
	if len(n0Owned) < 2 {
		t.Fatal("fewer than two keys landed on n0; the scenario cannot run")
	}
	// One n0-owned key also takes a gradient step: the APPLY's post-image
	// rides the same replication stream as the puts, so the stepped value
	// is what the promoted replica must serve.
	stepped, unitGrad := n0Owned[len(n0Owned)-1], []float32{1, 1, 1, 1}
	if err := ses.RMW(stepped, unitGrad, 1); err != nil {
		t.Fatal(err)
	}
	// The promotion read-back is only honest once the replica has applied
	// everything the dying primary acked.
	waitFor(t, 5*time.Second, "replica catch-up", func() bool {
		return n2.reg.ReplWatermark() >= uint64(len(n0Owned))+1
	})

	// Kill n0: sever its network, then stop the process. Peers see pure
	// silence — no FIN, no leave announcement — the hard way to die.
	proxy.Partition()
	n0.stop(false)
	t0 := time.Now()

	// Workload phase 2: keep hammering an n0-owned key until a write is
	// acked again. Each attempt runs under its own deadline; the overall
	// budget is what the acceptance criterion bounds.
	probe := n0Owned[0]
	waitFor(t, 30*time.Second, "first post-failure acked write", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return ses.PutCtx(ctx, probe, failVal(probe, 2, dim)) == nil
	})
	t.Logf("failover: detection to first acked write took %v", time.Since(t0))

	// The survivors must agree n2 now owns n0's ranges at a higher epoch.
	for _, n := range []*failoverNode{n1, n2} {
		cur := n.st.Map()
		if cur.Epoch <= m.Epoch {
			t.Fatalf("%s still at epoch %d after promotion", n.id, cur.Epoch)
		}
		if cur.Node("n2").Role != cluster.RolePrimary {
			t.Fatalf("%s does not see n2 as primary", n.id)
		}
		if got := cur.Node("n0"); got.Role != cluster.RoleReplica || got.PrimaryID != "n2" {
			t.Fatalf("%s sees dead n0 as %v of %q, want demoted replica of n2", n.id, got.Role, got.PrimaryID)
		}
	}
	if s := n2.st.Stats(); s.ConfirmedDeaths == 0 || s.Promotions != 1 {
		t.Fatalf("n2 cluster stats deaths=%d promotions=%d, want >=1 and 1", s.ConfirmedDeaths, s.Promotions)
	}

	// Every write acked before or after the kill must read back: phase-1
	// values for untouched keys, the phase-2 value for the probe, and the
	// phase-1 value less one unit step for the stepped key.
	for _, k := range append([]uint64(nil), n0Owned...) {
		gen := 1
		if k == probe {
			gen = 2
		}
		want := failVal(k, gen, dim)
		if k == stepped {
			for i := range want {
				want[i]--
			}
		}
		got := make([]float32, dim)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := ses.GetCtx(ctx, k, got)
		cancel()
		if err != nil {
			t.Fatalf("acked key %d unreadable after failover: %v", k, err)
		}
		if !f32sEq(got, want) {
			t.Fatalf("acked key %d read back %v, want %v: an acked write was lost", k, got, want)
		}
	}
	// And the new owner steps it further: an APPLY routed by the refreshed
	// map lands on the promoted replica.
	if err := ses.RMW(stepped, unitGrad, 1); err != nil {
		t.Fatalf("post-failover RMW: %v", err)
	}
	got := make([]float32, dim)
	want := failVal(stepped, 1, dim)
	for i := range want {
		want[i] -= 2
	}
	if found, err := ses.Peek(stepped, got); err != nil || !found || !f32sEq(got, want) {
		t.Fatalf("stepped key after a second step on the new owner: found=%v err=%v %v, want %v", found, err, got, want)
	}

	// More writes across the ring must now succeed first-try on the new
	// topology (n2 for the failed-over ranges, n1 untouched).
	for k := uint64(keys); k < keys+16; k++ {
		if err := ses.Put(k, failVal(k, 2, dim)); err != nil {
			t.Fatalf("post-failover put %d: %v", k, err)
		}
	}

	// Rejoin: restart n0 from its stale persisted map (which still claims
	// n0 is primary) on a fresh listener behind the healed proxy. Anti-
	// entropy with the survivors must demote it, not split-brain the ring.
	self, stale, err := cluster.LoadMap(dirs["n0"])
	if err != nil {
		t.Fatal(err)
	}
	if self != "n0" || stale.Epoch != m.Epoch || stale.Node("n0").Role != cluster.RolePrimary {
		t.Fatalf("persisted map for n0: self=%q epoch=%d, want the pre-death topology", self, stale.Epoch)
	}
	ln0b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n0b := startFailoverNode(t, "n0", dirs["n0"], ln0b, stale)
	defer n0b.stop(true)
	proxy.SetTarget(ln0b.Addr().String())
	proxy.Heal()

	waitFor(t, 10*time.Second, "rejoined primary to demote itself", func() bool {
		cur := n0b.st.Map()
		n := cur.Node("n0")
		return cur.Epoch > m.Epoch && n.Role == cluster.RoleReplica && !n0b.st.WriteOwned(probe)
	})
	// And the demoted node refuses what it used to own: a write through
	// the client still lands on n2, not the returned zombie.
	if err := ses.Put(probe, failVal(probe, 3, dim)); err != nil {
		t.Fatalf("write after rejoin: %v", err)
	}
	if err := ses.Get(probe, got); err != nil || !f32sEq(got, failVal(probe, 3, dim)) {
		t.Fatalf("read after rejoin: %v %v", got, err)
	}
}

// TestClusterFailoverRestartFromPersistedMaps pins flag-less restart: all
// three nodes shut down gracefully and come back with nothing but their
// data dirs — topology, roles, and epoch recovered from the persisted
// cluster maps, and the cluster serves clients again.
func TestClusterFailoverRestartFromPersistedMaps(t *testing.T) {
	const dim = 4
	ids := []string{"n0", "n1", "n2"}
	dirs := make(map[string]string, len(ids))
	lns := make(map[string]net.Listener, len(ids))
	specs := make([]cluster.Node, 0, len(ids))
	for _, id := range ids {
		dirs[id] = t.TempDir()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[id] = ln
		role, primary := cluster.RolePrimary, ""
		if id == "n2" {
			role, primary = cluster.RoleReplica, "n0"
		}
		specs = append(specs, cluster.Node{ID: id, Addr: ln.Addr().String(), Role: role, PrimaryID: primary})
	}
	m, err := cluster.BuildMap(specs)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*failoverNode, 0, len(ids))
	for _, id := range ids {
		nodes = append(nodes, startFailoverNode(t, id, dirs[id], lns[id], m))
	}

	target := mlkv.Scheme + strings.Join([]string{specs[0].Addr, specs[1].Addr, specs[2].Addr}, ",")
	db, err := mlkv.Connect(target, mlkv.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := db.Open("restart", dim, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := mdl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 16; k++ {
		if err := ses.Put(k, failVal(k, 1, dim)); err != nil {
			t.Fatal(err)
		}
	}
	ses.Close()
	mdl.Close()
	db.Close()

	// Full-cluster graceful shutdown, then restart every node from
	// nothing but LoadMap — the equivalent of rebooting mlkv-server with
	// only -addr and -dir (no -cluster, no -join).
	for _, n := range nodes {
		n.stop(true)
	}
	for _, id := range ids {
		self, saved, err := cluster.LoadMap(dirs[id])
		if err != nil {
			t.Fatalf("node %s persisted no usable map: %v", id, err)
		}
		if self != id {
			t.Fatalf("node %s persisted self id %q", id, self)
		}
		if saved.Epoch != m.Epoch || len(saved.Nodes) != len(ids) {
			t.Fatalf("node %s recovered epoch=%d nodes=%d, want %d/%d", id, saved.Epoch, len(saved.Nodes), m.Epoch, len(ids))
		}
		for _, want := range specs {
			got := saved.Node(want.ID)
			if got == nil || got.Addr != want.Addr || got.Role != want.Role || got.PrimaryID != want.PrimaryID {
				t.Fatalf("node %s recovered %s as %+v, want %+v", id, want.ID, got, want)
			}
		}
		// Rebind the same advertised address the persisted map records.
		ln, err := net.Listen("tcp", saved.Node(id).Addr)
		if err != nil {
			t.Fatalf("rebind %s: %v", saved.Node(id).Addr, err)
		}
		lns[id] = ln
		nodes = append(nodes, startFailoverNode(t, id, dirs[id], ln, saved))
	}
	restarted := nodes[len(ids):]
	for _, n := range restarted {
		defer n.stop(true)
	}

	// The reborn cluster serves the public API end to end.
	db2, err := mlkv.Connect(target, mlkv.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	mdl2, err := db2.Open("restart-2", dim, mlkv.WithStalenessBound(mlkv.ASP))
	if err != nil {
		t.Fatal(err)
	}
	defer mdl2.Close()
	ses2, err := mdl2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ses2.Close()
	for k := uint64(0); k < 16; k++ {
		if err := ses2.Put(k, failVal(k, 2, dim)); err != nil {
			t.Fatalf("put %d on restarted cluster: %v", k, err)
		}
		got := make([]float32, dim)
		if err := ses2.Get(k, got); err != nil || !f32sEq(got, failVal(k, 2, dim)) {
			t.Fatalf("get %d on restarted cluster: %v %v", k, got, err)
		}
	}
	st, err := mdl2.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ClusterNodes != int64(len(ids)) || st.ClusterEpoch != int64(m.Epoch) {
		t.Fatalf("client sees nodes=%d epoch=%d, want %d/%d", st.ClusterNodes, st.ClusterEpoch, len(ids), m.Epoch)
	}
}

// TestClusterFailoverKeepsBound pins the bound across a promotion when
// the replica first saw the model through the replication stream, not
// through a client OPEN: the replica is cut off while the client opens an
// SSP(4) model, so the replicator's OPEN is the one that creates the
// model there. That OPEN must carry the bound the primary runs. A replica
// that ran its own server default instead would refuse the router's
// SSP(4) OPEN once promoted (the bound is fixed while a model is open),
// and every op on the failed-over ranges would fail.
func TestClusterFailoverKeepsBound(t *testing.T) {
	const (
		dim   = 4
		bound = 4
	)
	var lns [3]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
	}
	// n0 is proxied so the test can kill it; n2 is proxied so the test
	// can keep the client's OPEN from reaching it.
	p0, err := faultnet.New(lns[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	p2, err := faultnet.New(lns[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	m, err := cluster.BuildMap([]cluster.Node{
		{ID: "n0", Addr: p0.Addr(), Role: cluster.RolePrimary},
		{ID: "n1", Addr: lns[1].Addr().String(), Role: cluster.RolePrimary},
		{ID: "n2", Addr: p2.Addr(), Role: cluster.RoleReplica, PrimaryID: "n0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n0 := startFailoverNode(t, "n0", t.TempDir(), lns[0], m)
	n1 := startFailoverNode(t, "n1", t.TempDir(), lns[1], m)
	n2 := startFailoverNode(t, "n2", t.TempDir(), lns[2], m)
	defer n1.stop(true)
	defer n2.stop(true)

	p2.Partition()
	db, err := mlkv.Connect(mlkv.Scheme+strings.Join([]string{p0.Addr(), lns[1].Addr().String()}, ","),
		mlkv.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mdl, err := db.Open("bound", dim, mlkv.WithStalenessBound(bound))
	if err != nil {
		t.Fatal(err)
	}
	defer mdl.Close()
	if len(n2.reg.Models()) != 0 {
		t.Fatal("the client's OPEN reached the partitioned replica; the scenario cannot run")
	}
	p2.Heal()

	ses, err := mdl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	var n0Owned []uint64
	for k := uint64(0); k < 32; k++ {
		if err := ses.Put(k, failVal(k, 1, dim)); err != nil {
			t.Fatal(err)
		}
		if m.Owner(k).ID == "n0" {
			n0Owned = append(n0Owned, k)
		}
	}
	if len(n0Owned) == 0 {
		t.Fatal("no key landed on n0; the scenario cannot run")
	}
	waitFor(t, 5*time.Second, "replica catch-up", func() bool {
		return n2.reg.ReplWatermark() >= uint64(len(n0Owned))
	})
	for _, rm := range n2.reg.Models() {
		if got := rm.Store().StalenessBound(); got != bound {
			t.Fatalf("replicator opened %q on the replica at bound %d, want the primary's %d", rm.ID(), got, bound)
		}
	}

	p0.Partition()
	n0.stop(false)
	probe := n0Owned[0]
	waitFor(t, 30*time.Second, "first post-failure acked write", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		err := ses.PutCtx(ctx, probe, failVal(probe, 2, dim))
		if err != nil && strings.Contains(err.Error(), "staleness bound") {
			t.Fatalf("promoted replica refused the model's bound: %v", err)
		}
		return err == nil
	})
	for _, k := range n0Owned {
		gen := 1
		if k == probe {
			gen = 2
		}
		got := make([]float32, dim)
		if err := ses.Get(k, got); err != nil || !f32sEq(got, failVal(k, gen, dim)) {
			t.Fatalf("key %d on the promoted replica: %v %v, want %v", k, got, err, failVal(k, gen, dim))
		}
	}
	if got := mdl.StalenessBound(); got != bound {
		t.Fatalf("model reports bound %d after failover, want %d", got, bound)
	}
}
