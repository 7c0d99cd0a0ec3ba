// Package mlkv is the public API of MLKV-Go, a reproduction of "MLKV:
// Efficiently Scaling up Large Embedding Model Training with Disk-based
// Key-Value Storage" (He et al., ICDE 2025).
//
// MLKV stores embedding tables in a FASTER-style disk-backed hybrid log and
// adds two optimizations that specialized training frameworks previously
// implemented privately: bounded-staleness consistency (a per-record vector
// clock packed into the record lock word) and look-ahead prefetching (an
// asynchronous interface that moves disk-resident embeddings into the
// mutable memory buffer beyond the staleness window).
//
// A DB is one storage target — a local data directory, or a shared
// mlkv-server reached as "mlkv://host:port" — from which any number of
// named models are opened, the Open(model_id, dim, staleness_bound)
// interface of §III-A. The same program runs against either target:
//
//	db, _ := mlkv.Connect(target)               // "/data/mlkv" or "mlkv://host:7070"
//	defer db.Close()
//	model, _ := db.Open("ctr-model", dim, mlkv.WithStalenessBound(4))
//	defer model.Close()
//	sess, _ := model.NewSession()
//	defer sess.Close()
//
//	emb := make([]float32, dim)
//	for _, batch := range loader {
//	    sess.Lookahead(batch.FutureKeys)        // hide disk access
//	    for _, k := range batch.Keys {
//	        sess.Get(k, emb)                    // forward pass input
//	        ...                                  // compute gradient
//	        sess.Put(k, updated)                // backward pass write
//	    }
//	}
//
// Every session operation has a context-taking variant (GetCtx, PutCtx,
// ...): the context bounds staleness waits on a local model and network
// round trips on a remote one.
package mlkv

import (
	"context"
	"errors"
	"math"
	"time"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/driver"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// Staleness bounds with paper-aligned names (§III-C1).
const (
	// BSP (bound 0): a read waits until no update is outstanding on the
	// record — bulk-synchronous training.
	BSP = int64(0)
	// ASP (INT64_MAX): the vector clock is maintained but never blocks —
	// fully asynchronous training.
	ASP = int64(math.MaxInt64)
	// Disabled (-1): plain FASTER semantics, no vector clock.
	Disabled = int64(-1)
)

// Scheme prefixes a remote Connect target: "mlkv://host:port".
const Scheme = "mlkv://"

// ErrNoLiveOwner reports a cluster operation that exhausted its retry
// budget without reaching any live owner for the key: the owning primary
// was unreachable and no refetched topology produced a reachable
// successor within the caller's deadline. Test with errors.Is. Transient
// single-node failures never surface this — the router retries against
// refreshed maps (and a failed-over replica promotion heals mid-call), so
// seeing it means the range is genuinely down right now.
var ErrNoLiveOwner = driver.ErrNoLiveOwner

// Initializer produces the initial embedding for a key seen for the first
// time; dst arrives zeroed with the model's dimension. It must be
// deterministic in key: on a remote model it runs client-side on every
// worker that first touches a key.
type Initializer = core.Initializer

// initSeed seeds the default uniform initializer ("mlkv" in ASCII).
const initSeed = 0x6d6c6b76

// ConnectOption customizes Connect.
type ConnectOption func(*connectConfig)

type connectConfig struct {
	conns        int
	readReplicas bool
}

// WithConns sizes the connection pool of a remote target (default 2).
// Size it to the number of concurrently blocking sessions: under BSP or a
// finite SSP bound, a blocked remote read must not queue behind the write
// that unblocks it on a shared connection. Local targets ignore it.
func WithConns(n int) ConnectOption { return func(c *connectConfig) { c.conns = n } }

// WithReadReplicas lets a cluster target ("mlkv://a,b,c") serve reads
// from replicas, staleness-bound-aware: ASP reads may hit any replica of
// the key's range, BSP reads always go to the owning primary, and an SSP
// read uses a replica only while its advertised replication lag passes
// the model's bound — the same admissibility rule the hot cache applies,
// one network hop earlier. Writes always go to primaries. Keys served by
// replicas are counted in Stats.ReplicaReads. Non-cluster targets ignore
// the option.
func WithReadReplicas() ConnectOption {
	return func(c *connectConfig) { c.readReplicas = true }
}

// DB is one storage target serving named models: a local data directory
// or a remote mlkv-server.
type DB struct {
	d      driver.DB
	remote bool
}

// Connect opens a target. A target of the form "mlkv://host:port" dials a
// running mlkv-server; anything else is a local directory (created on the
// first Open).
func Connect(target string, opts ...ConnectOption) (*DB, error) {
	var cfg connectConfig
	for _, o := range opts {
		o(&cfg)
	}
	d, err := driver.Connect(target, driver.ConnectOptions{
		Conns:        cfg.conns,
		ReadReplicas: cfg.readReplicas,
	})
	if err != nil {
		return nil, err
	}
	return &DB{d: d, remote: driver.IsRemote(target)}, nil
}

// Target echoes the Connect target string.
func (db *DB) Target() string { return db.d.Target() }

// Remote reports whether the DB is backed by a remote server.
func (db *DB) Remote() bool { return db.remote }

// Close releases the target: open models of a local DB, the connection
// pool of a remote one (whose models then fail).
func (db *DB) Close() error { return db.d.Close() }

// Option customizes DB.Open.
type Option func(*config)

type config struct {
	engine       string
	bound        int64
	boundSet     bool
	memory       int64
	keys         uint64
	init         Initializer
	shards       int
	cacheEntries int
}

// WithEngine selects the storage engine behind the model: "mlkv" (or
// "faster" — the clocked hybrid log, the default) or "bptree" (a
// read-optimized on-disk B+tree). On a remote DB the engine travels in the
// OPEN frame, so the same option picks the engine server-side; a server
// may pin a model to an engine, in which case a conflicting request fails.
// The clock-free B+tree has no staleness clock: it rejects BSP and finite
// SSP bounds and always runs effectively unbounded. A model opens with the
// engine it was created with — reopening under a different one is
// refused. Unset (or ""), the target chooses: locally the hybrid log,
// remotely the server's default engine.
func WithEngine(name string) Option { return func(c *config) { c.engine = name } }

// WithStalenessBound sets the consistency bound: BSP, ASP, Disabled, or any
// positive SSP bound. The bound is fixed while the model is open: a second
// Open of a live model (on this DB, or on the same server from any client)
// with a different bound is refused. Locally, once every handle has closed,
// the next Open may choose another; a server keeps its models open until
// it exits. A model without a clock (a clock-free engine, or Disabled)
// reports Disabled and also accepts any non-blocking bound. Unset, a live
// model keeps its bound and a new one opens under ASP — the one bound
// every engine runs — locally, and under the server's -staleness default
// (also ASP unless set) remotely.
func WithStalenessBound(b int64) Option {
	return func(c *config) { c.bound, c.boundSet = b, true }
}

// WithMemory sets the in-memory buffer budget in bytes (the paper's
// "buffer size"; default 256 MiB). Remote models ignore it: the server
// owns its sizing. It bounds the log's in-memory frames only: records
// evicted to disk are read through a read-only mapping of the log file,
// so the log pages a run touches also count toward the process's RSS.
func WithMemory(bytes int64) Option { return func(c *config) { c.memory = bytes } }

// WithExpectedKeys sizes the hash index for the expected embedding count
// (local models).
func WithExpectedKeys(n uint64) Option { return func(c *config) { c.keys = n } }

// UniformInit returns the initializer drawing each first-touch embedding
// uniformly from [-scale, scale), seeded per key, so local and remote
// workers all derive the same embedding for a given key. UniformInit(0)
// keeps every first-touch value at zero.
func UniformInit(scale float32) Initializer { return core.UniformInit(scale, initSeed) }

// WithInitializer installs the first-touch initializer (default
// UniformInit(0.05); nil keeps the default). It must be deterministic in
// key (see Initializer).
func WithInitializer(fn Initializer) Option {
	return func(c *config) {
		if fn != nil {
			c.init = fn
		}
	}
}

// WithCache attaches a staleness-aware hot tier holding up to entries
// embeddings in front of the model's read path (Figure 5(b)'s
// application-side cache). Entries are stamped with the model's write
// clock when they are filled, and a cached read is served only when the
// entry is provably within the staleness bound in effect: always under
// ASP, never under BSP (bound 0), and only while no more than bound
// writes have landed since the fill under a finite SSP bound. Writes
// update the tier in place (Put/PutBatch) or invalidate it (RMW,
// Delete). On a local model the tier sits above the store and its clock
// counts every writer of the table, so a served value is never more than
// the bound allows; it is consulted once the store has spilled to disk —
// a table that fits in WithMemory is served by the log's in-memory
// region, which already is the cache, and its reads skip the tier (the
// Stats cache counters stay zero) while writes keep it coherent for the
// day it spills. On a remote model the tier lives client-side and
// saves the network round trip on a hit — but its clock counts only this
// process's writes, so under a finite SSP bound the gap check bounds
// staleness relative to this client alone; other clients' writes are
// invisible to it (as they are to any application-side cache). When
// foreign writes must bound cached reads, use the server's shared tier
// (mlkv-server -cache), whose clock sees every client. Default 0 (no
// cache).
func WithCache(entries int) Option { return func(c *config) { c.cacheEntries = entries } }

// WithShards hash-partitions the embedding table across n independent
// FASTER store instances, each with its own hybrid log, hash index, and
// epoch domain. Batch operations (GetBatch, PutBatch) group keys by shard
// and fan out across shards — on the caller's goroutine while the table
// fits in memory, a goroutine per shard once it has spilled and there are
// disk waits to overlap (batches under 16 keys stay serial) — and concurrent sessions contend on n log tails
// instead of one. The memory budget is split evenly across
// shards. Default 1 (unsharded, the paper's configuration). A table must
// be reopened with the shard count it was created with; for a remote
// model the count is advisory — it applies only if the server creates the
// model on this Open.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// Open creates or looks up the named model with the given embedding
// dimension. Opening the same name twice on one DB returns the same
// underlying model (a server additionally deduplicates across clients).
func (db *DB) Open(id string, dim int, opts ...Option) (*Model, error) {
	return db.OpenCtx(context.Background(), id, dim, opts...)
}

// OpenCtx is Open bounded by ctx.
func (db *DB) OpenCtx(ctx context.Context, id string, dim int, opts ...Option) (*Model, error) {
	if id == "" {
		return nil, errors.New("mlkv: model id is required")
	}
	if dim <= 0 {
		return nil, errors.New("mlkv: dim must be positive")
	}
	cfg := config{memory: 256 << 20, init: UniformInit(0.05)}
	for _, o := range opts {
		o(&cfg)
	}
	dcfg := driver.Config{
		Dim:          dim,
		Engine:       cfg.engine,
		Shards:       cfg.shards,
		Bound:        cfg.bound,
		BoundSet:     cfg.boundSet,
		MemoryBytes:  cfg.memory,
		ExpectedKeys: cfg.keys,
		CacheEntries: cfg.cacheEntries,
		Init:         cfg.init,
	}
	m, err := db.d.Open(ctx, id, dcfg)
	if err != nil {
		return nil, err
	}
	return &Model{m: m, id: id}, nil
}

// Model is one embedding model: a named, disk-backed embedding table,
// served in-process or by a remote server.
type Model struct {
	m  driver.Model
	id string
}

// ID returns the model identifier.
func (m *Model) ID() string { return m.id }

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.m.Dim() }

// Shards returns the number of hash partitions backing the model (see
// WithShards).
func (m *Model) Shards() int { return m.m.Shards() }

// EngineName identifies the backing engine: "mlkv", "faster" (clock
// disabled), "bptree", or "remote(<engine>)".
func (m *Model) EngineName() string { return m.m.EngineName() }

// StalenessBound returns the consistency bound the model runs under,
// fixed while it is open (see WithStalenessBound).
func (m *Model) StalenessBound() int64 { return m.m.StalenessBound() }

// Checkpoint persists the model durably; call it at a training barrier
// (the paper checkpoints local NVMe state to durable storage periodically).
func (m *Model) Checkpoint() error { return m.m.Checkpoint(context.Background()) }

// CheckpointCtx is Checkpoint bounded by ctx.
func (m *Model) CheckpointCtx(ctx context.Context) error { return m.m.Checkpoint(ctx) }

// Stats reports storage counters useful for diagnosing data stalls.
type Stats struct {
	// Per-operation counts.
	Gets    int64
	Puts    int64
	RMWs    int64
	Deletes int64
	// Where clocked reads were served.
	DiskReads int64
	MemHits   int64
	// Consistency and write-path behavior.
	StalenessWaits int64
	InPlaceUpdates int64
	RCUAppends     int64
	// Look-ahead activity: records copied into the memory buffer, and the
	// keys of hints dropped on a full queue.
	PrefetchCopies  int64
	PrefetchDropped int64
	// Batch amortization: GetBatch/PutBatch calls (each may cover
	// thousands of keys) and Lookahead calls.
	BatchGets      int64
	BatchPuts      int64
	LookaheadCalls int64
	// Hot-tier activity (WithCache, and a server's -cache tier for remote
	// models): reads served from the staleness-aware cache, reads it could
	// not serve (absent or beyond the bound), and LRU evictions.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// Flush volume and shaping: pages and bytes written by the background
	// flusher, multi-page group-commit writes (adjacent frozen pages
	// merged into one write), and pacing sleeps taken between writes
	// (mlkv-server -flush-pace).
	FlushedPages    int64
	BytesFlushed    int64
	GroupCommits    int64
	FlushPaceStalls int64
	// Cluster activity (targets of the form "mlkv://a,b,c"; zero
	// elsewhere): nodes and map epoch the client's router currently holds,
	// NOT_OWNER redirects it followed (each adopting the server's newer
	// map), and keys served by read replicas (WithReadReplicas).
	ClusterNodes     int64
	ClusterEpoch     int64
	ClusterRedirects int64
	ReplicaReads     int64
	// Redial activity of a remote target's connection pools (zero for
	// local models): DialRetries counts redial attempts actually made
	// against broken pooled connections; DialBackoffs counts checkouts the
	// jittered-backoff breaker failed fast instead of re-dialing a host
	// already known dead. A rising DialBackoffs with flat DialRetries is a
	// pool waiting out a dead host, not hammering it.
	DialRetries  int64
	DialBackoffs int64
	// Per-op-class latency, always on. A local model times the table's
	// store operations; a remote model times this process's network round
	// trips (per connection pool, so every model opened from the same
	// Connect shares the summaries), which includes queueing in the
	// pipelined client — the tail your callers actually see. LatRMW is
	// the full RMW span: the storage-side step locally, its one round
	// trip remotely.
	LatGet      LatencySummary
	LatGetBatch LatencySummary
	LatPut      LatencySummary
	LatPutBatch LatencySummary
	LatRMW      LatencySummary
}

// LatencySummary is a percentile digest of one op class's latency
// histogram. Quantiles come from an HDR-style log-bucketed histogram
// with under 1% relative error; Max is exact. A zero Count means the
// class has not been exercised.
type LatencySummary struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// summaryOf converts a nanosecond snapshot to the public type.
func summaryOf(s latency.Snapshot) LatencySummary {
	return LatencySummary{
		Count: s.Count,
		Mean:  time.Duration(s.Mean()),
		P50:   time.Duration(s.P50),
		P90:   time.Duration(s.P90),
		P99:   time.Duration(s.P99),
		P999:  time.Duration(s.P999),
		Max:   time.Duration(s.Max),
	}
}

// Stats returns a snapshot of storage counters, summed across shards —
// best effort on a remote model (zero value if the server is unreachable;
// use StatsCtx to observe the error).
func (m *Model) Stats() Stats {
	s, _ := m.StatsCtx(context.Background())
	return s
}

// StatsCtx returns a snapshot of storage counters, summed across shards.
func (m *Model) StatsCtx(ctx context.Context) (Stats, error) {
	s, err := m.m.Stats(ctx)
	if err != nil {
		return Stats{}, err
	}
	return statsOf(s), nil
}

// statsOf is the one conversion of the internal counter record: every
// Stats field is the same-named stats.Counters field, latency nanoseconds
// becoming time.Duration.
func statsOf(s stats.Counters) Stats {
	return Stats{
		Gets: s.Gets, Puts: s.Puts, RMWs: s.RMWs, Deletes: s.Deletes,
		DiskReads: s.DiskReads, MemHits: s.MemHits,
		StalenessWaits: s.StalenessWaits,
		InPlaceUpdates: s.InPlaceUpdates, RCUAppends: s.RCUAppends,
		PrefetchCopies: s.PrefetchCopies, PrefetchDropped: s.PrefetchDropped,
		BatchGets: s.BatchGets, BatchPuts: s.BatchPuts,
		LookaheadCalls: s.LookaheadCalls,
		CacheHits:      s.CacheHits, CacheMisses: s.CacheMisses,
		CacheEvictions: s.CacheEvictions,
		FlushedPages:   s.FlushedPages, BytesFlushed: s.BytesFlushed,
		GroupCommits: s.GroupCommits, FlushPaceStalls: s.FlushPaceStalls,
		ClusterNodes: s.ClusterNodes, ClusterEpoch: s.ClusterEpoch,
		ClusterRedirects: s.ClusterRedirects, ReplicaReads: s.ReplicaReads,
		DialRetries: s.DialRetries, DialBackoffs: s.DialBackoffs,
		LatGet: summaryOf(s.LatGet), LatGetBatch: summaryOf(s.LatGetBatch),
		LatPut: summaryOf(s.LatPut), LatPutBatch: summaryOf(s.LatPutBatch),
		LatRMW: summaryOf(s.LatRMW),
	}
}

// ActiveSessions reports how many sessions are currently open on the
// model (serving front-ends use it to track drains and load). On a remote
// model it is the server's count across every client, fetched best effort.
func (m *Model) ActiveSessions() int64 {
	s, _ := m.m.Stats(context.Background())
	return s.ActiveSessions
}

// Close releases the model.
func (m *Model) Close() error { return m.m.Close() }

// NewSession registers a session. Sessions are cheap; create one per
// worker goroutine and close it when done.
func (m *Model) NewSession() (*Session, error) {
	return m.NewSessionCtx(context.Background())
}

// NewSessionCtx is NewSession bounded by ctx.
func (m *Model) NewSessionCtx(ctx context.Context) (*Session, error) {
	s, err := m.m.NewSession(ctx)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Session is one goroutine's handle. Sessions are cheap; create one per
// worker and close it when done.
type Session struct {
	s driver.Session
}

// Close unregisters the session (on a remote model, the server is told so
// its per-model session accounting stays truthful).
func (s *Session) Close() { s.s.Close() }

// Get reads the embedding for key into dst (len == Dim), initializing on
// first touch, under the bounded-staleness protocol: it waits until the
// record's outstanding-update count is within the bound, then atomically
// increments it. Reads land in dst directly, on either driver: after an
// error from Get or GetBatch, what dst holds is undefined.
func (s *Session) Get(key uint64, dst []float32) error {
	return s.s.Get(context.Background(), key, dst)
}

// GetCtx is Get bounded by ctx: a read stalled on the staleness bound (or
// a remote round trip) returns ctx.Err() when ctx ends. A read that ends
// this way holds no staleness token, so it owes no balancing Put. On a
// remote model the guarantee rides on the context's *deadline*, which
// travels in the frame so the server abandons the stalled read too, up to
// 25 ms early so that its verdict is back in time (the call still returns
// at the deadline); cancelling a deadline-free context returns early but
// leaves the server-side read running — prefer deadlines for remote reads.
func (s *Session) GetCtx(ctx context.Context, key uint64, dst []float32) error {
	return s.s.Get(ctx, key, dst)
}

// GetBatch reads len(keys) embeddings into dst (len == len(keys)*Dim).
func (s *Session) GetBatch(keys []uint64, dst []float32) error {
	return s.s.GetBatch(context.Background(), keys, dst)
}

// GetBatchCtx is GetBatch bounded by ctx (checked on every clocked read
// locally, per frame remotely).
func (s *Session) GetBatchCtx(ctx context.Context, keys []uint64, dst []float32) error {
	return s.s.GetBatch(ctx, keys, dst)
}

// Put upserts the embedding for key, decrementing the record's
// outstanding-update count. Puts never wait.
func (s *Session) Put(key uint64, val []float32) error {
	return s.s.Put(context.Background(), key, val)
}

// PutCtx is Put bounded by ctx.
func (s *Session) PutCtx(ctx context.Context, key uint64, val []float32) error {
	return s.s.Put(ctx, key, val)
}

// PutBatch upserts len(keys) embeddings from vals.
func (s *Session) PutBatch(keys []uint64, vals []float32) error {
	return s.s.PutBatch(context.Background(), keys, vals)
}

// PutBatchCtx is PutBatch bounded by ctx.
func (s *Session) PutBatchCtx(ctx context.Context, keys []uint64, vals []float32) error {
	return s.s.PutBatch(ctx, keys, vals)
}

// RMW applies emb ← emb − lr·grad atomically in storage, locally and
// remotely alike: over the wire it is one round trip, run by the server as
// the same storage-side step. A never-read key steps from its initial
// embedding. A step is not idempotent, so a remote RMW is never re-sent
// once its request was written: an error after that point means the step
// may or may not have been applied.
func (s *Session) RMW(key uint64, grad []float32, lr float32) error {
	return s.s.RMW(context.Background(), key, grad, lr)
}

// RMWCtx is RMW bounded by ctx.
func (s *Session) RMWCtx(ctx context.Context, key uint64, grad []float32, lr float32) error {
	return s.s.RMW(ctx, key, grad, lr)
}

// Peek reads without consistency effects (for evaluation/inference).
func (s *Session) Peek(key uint64, dst []float32) (bool, error) {
	return s.s.Peek(context.Background(), key, dst)
}

// PeekCtx is Peek bounded by ctx.
func (s *Session) PeekCtx(ctx context.Context, key uint64, dst []float32) (bool, error) {
	return s.s.Peek(ctx, key, dst)
}

// Delete removes key's embedding.
func (s *Session) Delete(key uint64) error {
	return s.s.Delete(context.Background(), key)
}

// DeleteCtx is Delete bounded by ctx.
func (s *Session) DeleteCtx(ctx context.Context, key uint64) error {
	return s.s.Delete(ctx, key)
}

// Lookahead asynchronously copies the given keys' embeddings from disk into
// MLKV's mutable memory buffer ahead of use (§III-C2). Unlike conventional
// prefetching it is not limited by the staleness bound. Call it once per
// upcoming batch, at least one batch ahead of that batch's GetBatch: the
// copies are made in the background, so a hint issued with the read is
// wasted. It never blocks and keeps no reference to keys: on a remote model
// the hint travels as one frame on a background session, and what does not
// fit the queue is dropped (Stats.PrefetchDropped counts the keys).
func (s *Session) Lookahead(keys []uint64) error {
	return s.s.Lookahead(keys)
}
