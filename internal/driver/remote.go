package driver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/hotcache"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// wireSession is one worker's byte-level handle on a remote target,
// satisfied by both *client.Session (one server) and *cluster.RSession
// (routed across a cluster). Not safe for concurrent use.
type wireSession interface {
	DeleteCtx(ctx context.Context, key uint64) error
	ApplyCtx(ctx context.Context, key uint64, lr float32, grad []float32) (found bool, err error)
	GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error
	PeekBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error
	PutBatchCtx(ctx context.Context, keys []uint64, vals []byte) error
	LookaheadCtx(ctx context.Context, keys []uint64) (int, error)
	Close()
}

// wireModel is one named model behind either remote backend.
type wireModel interface {
	ID() string
	Dim() int
	Shards() int
	Name() string
	StalenessBound() int64
	CheckpointCtx(ctx context.Context) error
	StatsCtx(ctx context.Context) (stats.Counters, error)
	NewWireSession(ctx context.Context) (wireSession, error)
}

// ErrNoLiveOwner re-exports the cluster router's failover sentinel across
// the seam: an operation that spent its whole owner-retry budget without
// any reachable owner for the key wraps this, so callers can distinguish
// "the cluster is down for this range" from a single failed round trip.
var ErrNoLiveOwner = cluster.ErrNoLiveOwner

// wireBackend is what remoteDB sits on: one server's connection pool or a
// cluster router fanning over many.
type wireBackend interface {
	OpenWireModel(ctx context.Context, spec client.OpenSpec) (wireModel, error)
	// FillStats overlays the client-side counters the backend owns onto a
	// server-side snapshot: redials (summed across every pool it holds) and
	// cluster routing. Latency is the model handle's (remoteModel.lat).
	FillStats(c *stats.Counters)
	Close() error
}

// singleBackend is the plain one-server pool.
type singleBackend struct{ c *client.Client }

// singleModel adapts *client.Model's concrete session type to the seam.
type singleModel struct{ *client.Model }

func (m singleModel) NewWireSession(ctx context.Context) (wireSession, error) {
	return m.Model.NewSessionCtx(ctx)
}

func (b singleBackend) OpenWireModel(ctx context.Context, spec client.OpenSpec) (wireModel, error) {
	m, err := b.c.OpenModel(ctx, spec)
	if err != nil {
		return nil, err
	}
	return singleModel{m}, nil
}
func (b singleBackend) FillStats(c *stats.Counters) { b.c.AddCounters(c) }
func (b singleBackend) Close() error                { return b.c.Close() }

// clusterBackend is the cluster router behind the same seam.
type clusterBackend struct{ r *cluster.Router }

// clusterModel adapts *cluster.RModel's concrete session type to the seam.
type clusterModel struct{ *cluster.RModel }

func (m clusterModel) NewWireSession(ctx context.Context) (wireSession, error) {
	return m.RModel.NewSession(ctx)
}

func (b clusterBackend) OpenWireModel(ctx context.Context, spec client.OpenSpec) (wireModel, error) {
	m, err := b.r.OpenModel(ctx, spec)
	if err != nil {
		return nil, err
	}
	return clusterModel{m}, nil
}
func (b clusterBackend) FillStats(c *stats.Counters) { b.r.FillStats(c) }
func (b clusterBackend) Close() error                { return b.r.Close() }

// remoteDB is a backend onto one or many mlkv-servers; models open over
// the wire with OPEN frames and all data moves through internal/tensor's
// float32 codecs. This package is the only one that may import
// internal/client and internal/cluster — everything else reaches a server
// through the public API (or DialKV below).
type remoteDB struct {
	target string
	c      wireBackend
}

// connectRemote bootstraps from the first reachable seed: every server is
// probed with CLUSTERMAP. A map answer builds the cluster router (so a
// client bootstrapped from any single seed discovers all nodes); an empty
// answer — the server is not clustered — from a single-host target is the
// plain one-server backend, and from a multi-host target a configuration
// error: a seed list promises a cluster.
func connectRemote(target string, addrs []string, opts ConnectOptions) (DB, error) {
	copts := client.Options{Conns: opts.Conns}
	var lastErr error
	for _, addr := range addrs {
		c, err := client.Dial(addr, copts)
		if err != nil {
			lastErr = err
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), client.DefaultDialTimeout)
		raw, err := c.ClusterMapRaw(ctx)
		cancel()
		if err != nil {
			c.Close()
			lastErr = err
			continue
		}
		if len(raw) == 0 { // reachable, just not clustered
			if len(addrs) > 1 {
				c.Close()
				return nil, fmt.Errorf("driver: target %q names %d servers but %s is not clustered", target, len(addrs), addr)
			}
			return &remoteDB{target: target, c: singleBackend{c: c}}, nil
		}
		m, err := cluster.DecodeMap(raw)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("driver: node %s served a bad cluster map: %w", addr, err)
		}
		ropts := cluster.RouterOptions{Client: copts, ReadReplicas: opts.ReadReplicas}
		return &remoteDB{target: target, c: clusterBackend{r: cluster.NewRouter(m, addr, c, ropts)}}, nil
	}
	return nil, fmt.Errorf("driver: no reachable server in %q: %w", target, lastErr)
}

func (db *remoteDB) Target() string { return db.target }

func (db *remoteDB) Open(ctx context.Context, id string, cfg Config) (Model, error) {
	bound := wire.BoundUnset
	if cfg.BoundSet {
		bound = cfg.Bound
	}
	cm, err := db.c.OpenWireModel(ctx, client.OpenSpec{
		ID: id, Dim: cfg.Dim, Shards: cfg.Shards, Bound: bound,
	})
	if err != nil {
		return nil, err
	}
	m := &remoteModel{
		db:       db,
		m:        cm,
		init:     cfg.Init,
		bound:    cm.StalenessBound(),
		lookCh:   make(chan []uint64, lookQueue),
		lookFree: make(chan []uint64, lookQueue),
		lookStop: make(chan struct{}),
		lookDone: make(chan struct{}),
	}
	for i := 0; i < lookQueue; i++ {
		m.lookFree <- nil // grown to the caller's hint size on first use
	}
	if cfg.CacheEntries > 0 {
		m.cache = hotcache.New[float32](cfg.CacheEntries, cfg.Dim)
	}
	return m, nil
}

// Close tears down the connection pool; models and sessions opened from
// this DB fail afterwards (and their Lookahead hints drop).
func (db *remoteDB) Close() error { return db.c.Close() }

// lookQueue is how many hints may wait for the lookahead worker. The
// trainers hint once per step, so the worker's one round trip per hint
// keeps up; a hint that would wait behind this many others would reach the
// server after the read it was meant to lead.
const lookQueue = 64

// remoteModel is one named model on the server. Lookahead hints are
// fire-and-forget on a local table but a blocking round trip on the wire,
// so the model hands them to a background worker with its own session
// (started on the first hint), one LOOKAHEAD frame per hint; a full queue
// drops the hint and counts its keys, matching core.Table's prefetch-pool
// semantics.
type remoteModel struct {
	db   *remoteDB
	m    wireModel
	init core.Initializer

	// cache is the client-side hot tier (Config.CacheEntries), shared by
	// every session of this model handle; its write clock counts this
	// process's writes to the model. bound is the staleness bound the
	// server reported at open, fixed while the model is open. The tier's gap
	// check therefore bounds staleness
	// relative to this process's writes; other clients' writes are invisible
	// to it, exactly as they are to a PERSIA-style application-side cache.
	// Workloads where foreign writes must bound cached reads belong on the
	// server-side tier (-cache), whose clock sees every client.
	cache *hotcache.Cache[float32]
	bound int64
	// lat times this handle's sessions' ops, at the ops core.Session times.
	lat latency.OpSet
	// The caller's GetBatch, PutBatch and Lookahead calls, counted where
	// core.Session counts them: the server counts frames, and a single key
	// or a cluster fan-out sends batch frames of its own.
	batchGets, batchPuts, lookaheadCalls atomic.Int64

	// lookMu orders worker start against Close, so a hint racing a Close
	// can never start a worker Close no longer sees.
	lookMu      sync.Mutex
	lookStarted bool
	lookClosed  bool
	// A hint is copied into a buffer that cycles lookFree → lookCh → the
	// worker → lookFree; both hold lookQueue, so holding a free buffer is
	// the right to enqueue it and an empty free list is a full queue.
	lookCh      chan []uint64
	lookFree    chan []uint64
	lookStop    chan struct{}
	lookDone    chan struct{}
	lookDropped atomic.Int64
}

func (m *remoteModel) ID() string            { return m.m.ID() }
func (m *remoteModel) Dim() int              { return m.m.Dim() }
func (m *remoteModel) Shards() int           { return m.m.Shards() }
func (m *remoteModel) EngineName() string    { return m.m.Name() }
func (m *remoteModel) StalenessBound() int64 { return m.bound }

func (m *remoteModel) Checkpoint(ctx context.Context) error { return m.m.CheckpointCtx(ctx) }

func (m *remoteModel) Stats(ctx context.Context) (stats.Counters, error) {
	c, err := m.m.StatsCtx(ctx)
	if err != nil {
		return stats.Counters{}, err
	}
	// The server's view, overlaid with what this process owns. The client
	// tier adds to the server's shared tier (both front the same store);
	// dropped hints are this handle's queue. Latency becomes this handle's
	// end-to-end view — tier hits, round trips with their demux queueing,
	// first-touch write-backs — not the server-side store timings (those
	// stay visible through the mlkv_latency expvar and raw STATS frames).
	// The pool is per-DB, so redials cover every model from this Connect.
	// The batch counters are this handle's calls, not the server's frames.
	if m.cache != nil {
		m.cache.Stats().AddTo(&c)
	}
	c.PrefetchDropped = m.lookDropped.Load()
	c.BatchGets, c.BatchPuts = m.batchGets.Load(), m.batchPuts.Load()
	c.LookaheadCalls = m.lookaheadCalls.Load()
	m.db.c.FillStats(&c)
	c.SetLatency(&m.lat)
	return c, nil
}

func (m *remoteModel) NewSession(ctx context.Context) (Session, error) {
	s, err := m.m.NewWireSession(ctx)
	if err != nil {
		return nil, err
	}
	return &remoteSession{m: m, s: s}, nil
}

// Close stops the lookahead worker. The server keeps the model open (the
// registry owns its lifecycle); the pool closes with the DB. Idempotent.
func (m *remoteModel) Close() error {
	m.lookMu.Lock()
	if m.lookClosed {
		m.lookMu.Unlock()
		return nil
	}
	m.lookClosed = true
	started := m.lookStarted
	m.lookMu.Unlock()
	if started {
		close(m.lookStop)
		<-m.lookDone
	}
	return nil
}

// lookaheadWorker drains the hint queue into LOOKAHEAD frames on its own
// session. Hints are best-effort: a transient server error drops this
// hint, not the pipeline.
func (m *remoteModel) lookaheadWorker() {
	defer close(m.lookDone)
	s, err := m.m.NewWireSession(context.Background())
	if err != nil {
		return
	}
	defer s.Close()
	for {
		select {
		case <-m.lookStop:
			return
		case keys := <-m.lookCh:
			s.LookaheadCtx(context.Background(), keys) //nolint:errcheck // best-effort hint
			m.lookFree <- keys
		}
	}
}

// enqueueLookahead hands a copy of keys (the caller reuses its slice) to
// the worker, starting it on first use; a hint beyond the queue capacity
// drops and PrefetchDropped counts its keys. A hint racing Close is dropped
// — start and close are ordered under lookMu.
func (m *remoteModel) enqueueLookahead(keys []uint64) {
	m.lookMu.Lock()
	if m.lookClosed {
		m.lookMu.Unlock()
		return
	}
	if !m.lookStarted {
		m.lookStarted = true
		go m.lookaheadWorker()
	}
	m.lookMu.Unlock()
	select {
	case buf := <-m.lookFree:
		m.lookCh <- append(buf[:0], keys...)
	default:
		m.lookDropped.Add(int64(len(keys)))
	}
}

// remoteSession adapts a wire session to the float32 seam, adding
// client-side first-touch initialization — the paper's
// "framework + plain KV store" integration pattern, with the initializer
// seeded per key so every worker initializes an embedding identically.
// Every single-key read or put is the one-key case of its batch path, so
// the tier consult, the tier fill and the first-touch write-back each
// exist once. Ops are timed into the model's latency set where
// core.Session times them: Get, GetBatch, Put, PutBatch and RMW, with a
// first-touch write-back part of the op that caused it.
type remoteSession struct {
	m *remoteModel
	s wireSession

	// one holds a single-key op's batch of one.
	one [1]uint64
	// Batch-path scratch, grown on demand and reused across steps. The wire
	// reads into and writes from the caller's own []float32
	// (tensor.F32Bytes); missVals stages only what that cannot serve: the
	// compacted fetch behind a tier sweep, then the first-touch write-back.
	found    []bool
	missKeys []uint64
	missVals []byte
	// Hot-tier scratch: positions the tier missed and their compacted
	// keys (what actually goes on the wire).
	cacheMiss []int
	fetchKeys []uint64
	// rmw stages a first-touch RMW's init − lr·grad.
	rmw []float32
}

// tier returns the model's hot tier and the bound to consult it under, nil
// when reads go straight to the wire: no tier is configured, or the bound is
// BSP, under which every read must synchronize through the store. The
// protocol is hotcache.Cache's; this site only adds what the wire needs —
// float32 values and client-side first touch.
func (s *remoteSession) tier() (*hotcache.Cache[float32], int64) {
	bound := s.m.bound
	if bound == 0 {
		return nil, 0
	}
	return s.m.cache, bound
}

// Get is GetBatch's one-key case.
func (s *remoteSession) Get(ctx context.Context, key uint64, dst []float32) error {
	if len(dst) != s.m.Dim() {
		return fmt.Errorf("driver: dst length %d != dim %d", len(dst), s.m.Dim())
	}
	defer s.m.lat.Since(latency.OpGet, time.Now())
	s.one[0] = key
	return s.getBatch(ctx, s.one[:], dst)
}

func (s *remoteSession) GetBatch(ctx context.Context, keys []uint64, dst []float32) error {
	if len(dst) != len(keys)*s.m.Dim() {
		return fmt.Errorf("driver: dst length %d != %d keys × dim %d", len(dst), len(keys), s.m.Dim())
	}
	defer s.m.lat.Since(latency.OpGetBatch, time.Now())
	s.m.batchGets.Add(1)
	return s.getBatch(ctx, keys, dst)
}

// getBatch serves admissible keys from the hot tier, issues one batched
// read for the rest, then initializes and writes back the missing keys
// with one batched write — first touch, paid once per call.
func (s *remoteSession) getBatch(ctx context.Context, keys []uint64, dst []float32) error {
	dim := s.m.Dim()
	vs := dim * 4
	c, bound := s.tier()
	fetch, into := keys, tensor.F32Bytes(dst)
	var idx []int // position of fetch[j] in keys; nil = identity
	var stamp int64
	if c != nil {
		stamp, s.cacheMiss, s.fetchKeys = c.Sweep(keys, dst, bound, s.cacheMiss, s.fetchKeys)
		if len(s.fetchKeys) == 0 {
			return nil
		}
		fetch, idx = s.fetchKeys, s.cacheMiss
	}
	s.missVals = util.Grow(s.missVals, len(fetch)*vs)
	if idx != nil {
		into = s.missVals // the misses arrive compacted; dst holds the hits
	}
	seg := func(j int) []float32 {
		if idx != nil {
			j = idx[j]
		}
		return dst[j*dim : (j+1)*dim]
	}
	s.found = util.Grow(s.found, len(fetch))
	if err := s.s.GetBatchCtx(ctx, fetch, into, s.found); err != nil {
		return err
	}
	s.missKeys = s.missKeys[:0]
	s.missVals = s.missVals[:0]
	for j, ok := range s.found {
		if ok {
			if idx != nil {
				tensor.BytesToF32s(into[j*vs:], seg(j))
			}
			if c != nil {
				c.Fill(fetch[j], seg(j), stamp)
			}
			continue
		}
		// First touch. The write-back list never outgrows its capacity (one
		// value per fetched key) and grows no faster than j, so it may share
		// into's memory behind the read position. The fresh record's clock
		// starts balanced: a miss acquired no token, and a put on a
		// zero-staleness record is floored, not underflowed.
		s.m.init.Fill(fetch[j], seg(j))
		s.missKeys = append(s.missKeys, fetch[j])
		s.missVals = append(s.missVals, tensor.F32Bytes(seg(j))...)
	}
	if len(s.missKeys) == 0 {
		return nil
	}
	if err := s.s.PutBatchCtx(ctx, s.missKeys, s.missVals); err != nil {
		return err
	}
	if c != nil {
		for j, ok := range s.found {
			if !ok {
				c.Write(fetch[j], seg(j))
			}
		}
	}
	return nil
}

// Put is PutBatch's one-key case.
func (s *remoteSession) Put(ctx context.Context, key uint64, val []float32) error {
	if len(val) != s.m.Dim() {
		return fmt.Errorf("driver: val length %d != dim %d", len(val), s.m.Dim())
	}
	defer s.m.lat.Since(latency.OpPut, time.Now())
	s.one[0] = key
	return s.putBatch(ctx, s.one[:], val)
}

func (s *remoteSession) PutBatch(ctx context.Context, keys []uint64, vals []float32) error {
	if len(vals) != len(keys)*s.m.Dim() {
		return fmt.Errorf("driver: vals length %d != %d keys × dim %d", len(vals), len(keys), s.m.Dim())
	}
	defer s.m.lat.Since(latency.OpPutBatch, time.Now())
	s.m.batchPuts.Add(1)
	return s.putBatch(ctx, keys, vals)
}

// putBatch is the one put path: one batched write, then the tier.
func (s *remoteSession) putBatch(ctx context.Context, keys []uint64, vals []float32) error {
	if err := s.s.PutBatchCtx(ctx, keys, tensor.F32Bytes(vals)); err != nil {
		return err
	}
	if c := s.m.cache; c != nil {
		c.WriteBatch(keys, vals)
	}
	return nil
}

// RMW is the storage-side read-modify-write over the wire: one APPLY
// frame, which the server runs as a single engine RMW — atomic against
// every other session, never waiting on the staleness bound. The stepped
// value materializes on the server, so the hot tier's copy is dropped. Only
// a never-written key costs more: the server knows no initializer and
// leaves it absent, and the step from init(key) is written back through
// the put path — first touch, as on the read path, is not atomic across
// clients.
func (s *remoteSession) RMW(ctx context.Context, key uint64, grad []float32, lr float32) error {
	dim := s.m.Dim()
	if len(grad) != dim {
		return fmt.Errorf("driver: grad length %d != dim %d", len(grad), dim)
	}
	defer s.m.lat.Since(latency.OpRMW, time.Now())
	found, err := s.s.ApplyCtx(ctx, key, lr, grad)
	if err != nil {
		return err
	}
	if !found {
		s.rmw = util.Grow(s.rmw, dim)
		s.m.init.Fill(key, s.rmw)
		tensor.Axpy(-lr, grad, s.rmw)
		s.one[0] = key
		return s.putBatch(ctx, s.one[:], s.rmw)
	}
	if c := s.m.cache; c != nil {
		c.Drop(key)
	}
	return nil
}

// Peek is a one-key PEEKBATCH: it reads without touching the vector clock
// or the hot tier, and is untimed, as it is locally.
func (s *remoteSession) Peek(ctx context.Context, key uint64, dst []float32) (bool, error) {
	if len(dst) != s.m.Dim() {
		return false, fmt.Errorf("driver: dst length %d != dim %d", len(dst), s.m.Dim())
	}
	s.one[0] = key
	s.found = util.Grow(s.found, 1)
	err := s.s.PeekBatchCtx(ctx, s.one[:], tensor.F32Bytes(dst), s.found)
	return s.found[0], err
}

func (s *remoteSession) Delete(ctx context.Context, key uint64) error {
	if err := s.s.DeleteCtx(ctx, key); err != nil {
		return err
	}
	if c := s.m.cache; c != nil {
		c.Drop(key)
	}
	return nil
}

func (s *remoteSession) Lookahead(keys []uint64) error {
	s.m.lookaheadCalls.Add(1)
	if len(keys) > 0 {
		s.m.enqueueLookahead(keys)
	}
	return nil
}

func (s *remoteSession) Close() { s.s.Close() }

// DialKV opens the named model on a remote server as a byte-level
// kv.Store — the escape hatch for harnesses that work on raw values (the
// YCSB benchmark, the network sweep). Closing the returned store closes
// its connection pool.
func DialKV(addr, model string, dim, conns int) (kv.Store, error) {
	c, err := client.Dial(addr, client.Options{Conns: conns})
	if err != nil {
		return nil, err
	}
	m, err := c.OpenModel(context.Background(), client.OpenSpec{
		ID: model, Dim: dim, Bound: wire.BoundUnset,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	return &dialedStore{Model: m, c: c}, nil
}

// dialedStore pairs a remote model with ownership of its pool.
type dialedStore struct {
	*client.Model
	c *client.Client
}

func (d *dialedStore) Close() error { return d.c.Close() }

// Stats is the served model's counters plus the pool's redials, for
// harness summaries; latency is the server's store-call timing (the
// harness times its own round trips).
func (d *dialedStore) Stats() stats.Counters {
	c := d.Model.Stats()
	d.c.AddCounters(&c)
	return c
}
