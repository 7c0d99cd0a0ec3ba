package driver

import (
	"context"
	"fmt"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/cluster"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/hotcache"
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
	// cluster routing.
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
// through the public API.
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
		c, err := client.Dial(context.Background(), addr, copts)
		if err != nil {
			lastErr = err
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), client.DefaultDialTimeout)
		raw, err := c.Call(ctx, wire.OpClusterMap, nil)
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
	m := &remoteModel{db: db, m: cm, init: cfg.Init, bound: cm.StalenessBound()}
	hintCtx, stopHints := context.WithCancel(context.Background())
	m.stopHints = stopHints
	m.hints = core.NewHintQueue(client.MaxKeysPerFrame, 1, func() (core.HintSession, error) {
		s, err := cm.NewWireSession(hintCtx)
		return wireHints{s, hintCtx}, err
	})
	if cfg.CacheEntries > 0 {
		m.cache = hotcache.New[float32](cfg.CacheEntries, cfg.Dim)
	}
	return m, nil
}

// Close tears down the connection pool; models and sessions opened from
// this DB fail afterwards (and their Lookahead hints drop).
func (db *remoteDB) Close() error { return db.c.Close() }

// remoteModel is one named model on the server. Lookahead hints are
// fire-and-forget at the API but a blocking round trip on the wire, so the
// model hands them to the same hint queue core.Table uses, with one worker
// on its own wire session and chunks of one frame's worth of keys: a
// trainer's hint leaves as one LOOKAHEAD frame per owner.
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

	// hints runs on a context stopHints cancels, so that Close never waits
	// on a round trip to a server that stopped answering.
	hints     *core.HintQueue
	stopHints context.CancelFunc
}

// wireHints serves a hint-queue chunk as a LOOKAHEAD round trip under the
// model's hint context.
type wireHints struct {
	s   wireSession
	ctx context.Context
}

func (w wireHints) Lookahead(keys []uint64) (int, error) {
	return w.s.LookaheadCtx(w.ctx, keys)
}

// Close detaches the worker's session without waiting for the answer: the
// queue closes only once the model does, and the server it detaches from
// may be the one that stopped answering. The round trip ends when its
// answer arrives, the connection breaks or the pool closes.
func (w wireHints) Close() { go w.s.Close() }

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
	// dropped hints are this handle's queue. The pool is per-DB, so redials
	// cover every model from this Connect.
	if m.cache != nil {
		m.cache.Stats().AddTo(&c)
	}
	c.PrefetchDropped = m.hints.Dropped()
	m.db.c.FillStats(&c)
	return c, nil
}

func (m *remoteModel) NewSession(ctx context.Context) (Session, error) {
	s, err := m.m.NewWireSession(ctx)
	if err != nil {
		return nil, err
	}
	return &remoteSession{m: m, s: s}, nil
}

// Close abandons any hint in flight and stops the hint queue. The server
// keeps the model open (the registry owns its lifecycle); the pool closes
// with the DB.
func (m *remoteModel) Close() error {
	m.stopHints()
	m.hints.Close()
	return nil
}

// remoteSession adapts a wire session to the float32 seam, adding
// client-side first-touch initialization — the paper's
// "framework + plain KV store" integration pattern, with the initializer
// seeded per key so every worker initializes an embedding identically.
// The tier consult, the tier fill and the first-touch write-back each
// exist once, on the batch paths.
type remoteSession struct {
	m *remoteModel
	s wireSession

	// one holds the batch of one that RMW's first-touch write-back and Peek
	// send.
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

// GetBatch serves admissible keys from the hot tier, issues one batched
// read for the rest, then initializes and writes back the missing keys
// with one batched write — first touch, paid once per call.
func (s *remoteSession) GetBatch(ctx context.Context, keys []uint64, dst []float32) error {
	dim := s.m.Dim()
	if len(dst) != len(keys)*dim {
		return fmt.Errorf("driver: dst length %d != %d keys × dim %d", len(dst), len(keys), dim)
	}
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

func (s *remoteSession) PutBatch(ctx context.Context, keys []uint64, vals []float32) error {
	if len(vals) != len(keys)*s.m.Dim() {
		return fmt.Errorf("driver: vals length %d != %d keys × dim %d", len(vals), len(keys), s.m.Dim())
	}
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
// or the hot tier.
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
	s.m.hints.Push(keys)
	return nil
}

func (s *remoteSession) Close() { s.s.Close() }
