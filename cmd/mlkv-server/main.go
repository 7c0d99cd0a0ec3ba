// Command mlkv-server serves named embedding models over TCP using the
// internal/wire framed binary protocol — a shared multi-tenant embedding
// storage service: clients mlkv.Connect("mlkv://host:port") and Open any
// number of named models, which the server creates lazily under its data
// directory on the first OPEN (one optionally hash-partitioned MLKV/FASTER
// store per model). Many remote trainers or inference workers drive the
// models concurrently, each server connection acting like one local worker
// session per model it attaches.
//
// Usage:
//
//	mlkv-server -addr 127.0.0.1:7070 -dir /data/mlkv -shards 4 \
//	            -buffer-mb 64 -records 1000000 -sync \
//	            -debug-addr 127.0.0.1:7071
//
// Flags size each model the server opens: -shards, -buffer-mb, -records,
// and -staleness are per-model defaults (an OPEN may request its own shard
// count and staleness bound; dimensions always come from the client).
// Every model is a hybrid log; -staleness -1 serves plain FASTER, the log
// with its clock off.
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// requests finish and flush, sessions drain, every model is checkpointed
// when -sync is set, and the final per-model counters print. A second
// signal exits immediately.
//
// With -debug-addr set, an HTTP listener exposes expvar at /debug/vars —
// per-model counters (mlkv_models), per-model per-op-class latency
// percentiles (mlkv_latency), the server's connection/request counters
// (mlkv_server) and, on a cluster node, the detector's confirmed deaths
// and promotions and the replication records lost (mlkv_cluster) — plus the
// net/http/pprof profiling endpoints under /debug/pprof/ on the same
// listener, so a CPU or heap profile of a live server is one curl away.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/ on the -debug-addr listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		debugAddr    = flag.String("debug-addr", "", "optional HTTP listen address for expvar (/debug/vars, incl. mlkv_latency percentiles) and pprof (/debug/pprof/)")
		dir          = flag.String("dir", "", "data directory, one subdirectory per model (default: temp, deleted on exit)")
		shards       = flag.Int("shards", 1, "default hash partitions per model (an OPEN may request its own)")
		bufferMB     = flag.Int("buffer-mb", 64, "per-model in-memory buffer budget (total, split across its shards)")
		records      = flag.Uint64("records", 1<<20, "expected key count per model (sizes the hash indexes)")
		staleness    = flag.Int64("staleness", -2, "default staleness bound for new models: -2=asp (never blocks; the default, as for a local model), -1=off (plain FASTER), 0=bsp, n>0=ssp")
		cache        = flag.Int("cache", 0, "per-model server-side hot-tier capacity in entries (0 disables); consulted once a model's store has spilled to disk (one that fits in -buffer-mb is served by the log's in-memory region), and cached reads are served only within each model's staleness bound")
		sync         = flag.Bool("sync", false, "fsync every flushed log page; also checkpoint all models on shutdown")
		flushPace    = flag.Duration("flush-pace", 0, "minimum gap between background flush writes per model shard, smearing flush bursts away from the read tail (0 = unpaced); adjacent frozen pages still merge into group-commit writes")
		drainSecs    = flag.Int("drain-timeout", 10, "seconds to wait for connections to drain on shutdown")
		clusterID    = flag.String("cluster", "", "run as one node of a cluster, with this node id; clients connect with mlkv://host1,host2,... and route by hash range")
		joinAddr     = flag.String("join", "", "host:port of any existing cluster node to join through (requires -cluster); omitted, this node seeds a new cluster")
		replicaOf    = flag.String("replica-of", "", "serve as a read replica of the named primary node instead of owning ranges (requires -cluster and -join)")
		advertise    = flag.String("advertise", "", "address other nodes and clients dial to reach this node (default: the bound -addr)")
		heartbeat    = flag.Duration("heartbeat", 500*time.Millisecond, "cluster heartbeat interval between peers")
		suspectAfter = flag.Duration("suspect-after", 2*time.Second, "how long a silent peer is tolerated before this node suspects it dead; a quorum of suspecting peers confirms the death and triggers replica promotion")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	defaultBound, err := server.FlagBound(*staleness)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d := *dir
	if d == "" {
		var err error
		d, err = os.MkdirTemp("", "mlkv-server-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(d)
	}

	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: d, Shards: *shards, RecordsPerPage: 256, MemoryBytes: int64(*bufferMB) << 20,
		ExpectedKeys: *records, StalenessBound: defaultBound, SyncWrites: *sync,
		FlushPace: *flushPace, CacheEntries: *cache,
	}})
	defer reg.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	var clusterState *cluster.State
	if *replicaOf != "" && (*clusterID == "" || *joinAddr == "") {
		log.Fatal("mlkv-server: -replica-of requires -cluster and -join (a replica cannot seed a cluster)")
	}
	if *joinAddr != "" && *clusterID == "" {
		log.Fatal("mlkv-server: -join requires -cluster <node-id>")
	}
	// A persisted map under the data dir means this node was already a
	// cluster member: recover the topology from disk so a full-cluster
	// restart needs no -cluster/-join flags at all. An explicit -join
	// outranks the file (the operator is re-homing the node); a corrupt
	// file is fatal rather than silently re-seeding a one-node cluster.
	savedSelf, savedMap, loadErr := cluster.LoadMap(d)
	if loadErr != nil && !errors.Is(loadErr, cluster.ErrNoSavedMap) {
		log.Fatalf("mlkv-server: %v (remove the cluster-map file under %s to re-seed)", loadErr, d)
	}
	if savedMap != nil && *joinAddr == "" {
		if *clusterID != "" && *clusterID != savedSelf {
			log.Fatalf("mlkv-server: -cluster %q does not match node id %q persisted under %s", *clusterID, savedSelf, d)
		}
		clusterState, err = cluster.NewState(savedSelf, savedMap)
		if err != nil {
			log.Fatalf("mlkv-server: persisted cluster map under %s: %v", d, err)
		}
		log.Printf("mlkv-server: cluster node %q recovered topology from disk (%d nodes, epoch %d)",
			savedSelf, len(savedMap.Nodes), savedMap.Epoch)
		// The file is only as fresh as our last run: exchange maps with the
		// other members so a promotion or join that happened while this node
		// was down supersedes the stale epoch before we serve.
		for i := range savedMap.Nodes {
			n := &savedMap.Nodes[i]
			if n.ID == savedSelf {
				continue
			}
			if got, err := cluster.PushMap(n.Addr, savedMap, 2*time.Second); err == nil && got != nil {
				if clusterState.Adopt(got) {
					log.Printf("mlkv-server: peer %s (%s) superseded persisted map (epoch %d -> %d)",
						n.ID, n.Addr, savedMap.Epoch, got.Epoch)
				}
			}
		}
	} else if *clusterID != "" {
		adv := *advertise
		if adv == "" {
			adv = ln.Addr().String()
			// A wildcard bind ("-addr :7070" → "[::]:7070") is not dialable
			// from other machines, and the advertised address is gossiped in
			// the cluster map — a silent misroute waiting to happen.
			if host, _, err := net.SplitHostPort(adv); err == nil {
				if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
					log.Fatalf("mlkv-server: bound address %s has no routable host to gossip; set -advertise host:port", adv)
				}
			}
		}
		self := cluster.Node{ID: *clusterID, Addr: adv, Role: cluster.RolePrimary, PrimaryID: *replicaOf}
		if *replicaOf != "" {
			self.Role = cluster.RoleReplica
		}
		if *joinAddr == "" {
			m, err := cluster.BuildMap([]cluster.Node{self})
			if err != nil {
				log.Fatalf("mlkv-server: -cluster: %v", err)
			}
			clusterState, err = cluster.NewState(*clusterID, m)
			if err != nil {
				log.Fatalf("mlkv-server: -cluster: %v", err)
			}
			log.Printf("mlkv-server: cluster node %q seeding a new cluster (epoch %d)", *clusterID, m.Epoch)
		} else {
			m, err := cluster.JoinCluster(*joinAddr, self, 5*time.Second)
			if err != nil {
				log.Fatalf("mlkv-server: -join %s: %v", *joinAddr, err)
			}
			clusterState, err = cluster.NewState(*clusterID, m)
			if err != nil {
				log.Fatalf("mlkv-server: -join: %v", err)
			}
			// Gossip the merged map to the members the seed knew about, so
			// every node redirects with the same epoch without waiting for a
			// client to wander by.
			for i := range m.Nodes {
				n := &m.Nodes[i]
				if n.ID == *clusterID || n.Addr == *joinAddr {
					continue
				}
				if _, err := cluster.PushMap(n.Addr, m, 5*time.Second); err != nil {
					log.Printf("mlkv-server: gossip to %s (%s): %v", n.ID, n.Addr, err)
				}
			}
			log.Printf("mlkv-server: cluster node %q joined via %s (%d nodes, epoch %d)",
				*clusterID, *joinAddr, len(m.Nodes), m.Epoch)
		}
	}
	if clusterState != nil {
		// Persist every adopted map under the data dir (atomic rename), so
		// the topology this node last agreed to survives a restart.
		if err := clusterState.EnablePersistence(d); err != nil {
			log.Printf("mlkv-server: cluster map persistence: %v", err)
		}
		clusterState.EnableReplication()
		clusterState.StartHealth(cluster.HealthConfig{
			Interval:     *heartbeat,
			SuspectAfter: *suspectAfter,
			Watermark:    reg.ReplWatermark,
			Logf:         log.Printf,
		})
		defer clusterState.Close()
	}

	srvCfg := server.Config{Registry: reg, Logf: log.Printf}
	if clusterState != nil { // a typed nil must not become a non-nil interface
		srvCfg.Cluster = clusterState
	}
	srv := server.New(srvCfg)
	log.Printf("mlkv-server: serving models (default shards=%d buffer=%dMB/model staleness=%s cache=%d sync=%v) on %s",
		*shards, *bufferMB, server.BoundName(defaultBound), *cache, *sync, ln.Addr())

	if *debugAddr != "" {
		expvar.Publish("mlkv_models", expvar.Func(func() any {
			out := map[string]any{}
			for _, m := range reg.Models() {
				out[m.ID()] = m.Stats()
			}
			return out
		}))
		expvar.Publish("mlkv_latency", expvar.Func(func() any {
			// model → op class → percentile summary (µs), from the
			// always-on per-model histograms. Op classes with no traffic
			// are omitted so the JSON stays readable.
			type opLat struct {
				Count                       int64
				P50us, P99us, P999us, Maxus float64
			}
			out := map[string]map[string]opLat{}
			for _, m := range reg.Models() {
				snaps := m.Latency().Snapshot()
				ops := map[string]opLat{}
				for op, s := range snaps {
					if s.Count == 0 {
						continue
					}
					ops[latency.Op(op).String()] = opLat{
						Count: s.Count,
						P50us: latency.Us(s.P50), P99us: latency.Us(s.P99),
						P999us: latency.Us(s.P999), Maxus: latency.Us(s.Max),
					}
				}
				out[m.ID()] = ops
			}
			return out
		}))
		expvar.Publish("mlkv_server", expvar.Func(func() any { return srv.Stats() }))
		if clusterState != nil {
			expvar.Publish("mlkv_cluster", expvar.Func(func() any { return clusterState.Stats() }))
		}
		go func() {
			log.Printf("mlkv-server: expvar on http://%s/debug/vars", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("mlkv-server: debug listener: %v", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("mlkv-server: %s: draining (again to force exit)", sig)
		go func() {
			<-sigCh
			log.Fatal("mlkv-server: forced exit")
		}()
		if clusterState != nil {
			// Tell the peers this is a planned exit so they tombstone this
			// node immediately instead of waiting out the suspicion timeout.
			cluster.AnnounceLeave(clusterState.Map(), clusterState.Self(), 2*time.Second)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("mlkv-server: drain incomplete: %v", err)
		}
		if err := <-serveErr; err != nil {
			log.Printf("mlkv-server: serve: %v", err)
		}
	case err := <-serveErr:
		if err != nil {
			log.Fatal(err)
		}
	}

	if *sync {
		log.Printf("mlkv-server: checkpointing all models")
		if err := reg.Checkpoint(); err != nil {
			log.Printf("mlkv-server: checkpoint: %v", err)
		}
	}
	st := srv.Stats()
	log.Printf("mlkv-server: served %d requests (%d batch keys, %d errors) over %d connections",
		st.Requests, st.BatchKeys, st.Errors, st.ConnsAccepted)
	for _, m := range reg.Models() {
		s := m.Stats()
		log.Printf("mlkv-server: model %q: gets=%d puts=%d batchGets=%d batchPuts=%d lookaheadFrames=%d sessions=%d memhits=%d diskreads=%d flushed=%dB",
			m.ID(), s.Gets, s.Puts, s.BatchGets, s.BatchPuts, s.LookaheadCalls,
			s.ActiveSessions, s.MemHits, s.DiskReads, s.BytesFlushed)
	}
}
