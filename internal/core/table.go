// Package core implements MLKV proper: the embedding-table abstraction the
// paper's §III exposes to ML frameworks. A Table is the typed layer over
// the kv engine seam: it stores one embedding table (fixed dimension) in a
// sharded engine store — by default the FASTER-style hybrid log with MLKV's
// bounded-staleness consistency — and adds what is table-level: the
// float32 codec, seeded first-touch initialization, and the Lookahead
// interface, an asynchronous prefetch pool that moves disk-resident
// embeddings into the store's mutable memory buffer ahead of use.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Bounds for Options.StalenessBound with paper-aligned names.
const (
	// BoundBSP trains bulk-synchronous: a read waits for every outstanding
	// update on the record.
	BoundBSP = int64(0)
	// BoundASP trains fully asynchronously (INT64_MAX, per §III-C1).
	BoundASP = faster.BoundAsync
	// BoundDisabled turns the vector clock off (plain FASTER semantics).
	BoundDisabled = int64(-1)
)

// Initializer produces the initial embedding for a key seen for the first
// time. dst has the table's dimension; it arrives zeroed.
type Initializer func(key uint64, dst []float32)

// UniformInit returns an Initializer drawing i.i.d. values from
// [-scale, scale), seeded per key so initialization is deterministic.
func UniformInit(scale float32, seed uint64) Initializer {
	return uniformInit{scale, seed}.fill
}

// uniformInit is a method value rather than a closure: when UniformInit
// inlines into its caller the compiler copies a closure's body without
// inlining the calls inside it, which heap-allocated the RNG on every key.
type uniformInit struct {
	scale float32
	seed  uint64
}

func (u uniformInit) fill(key uint64, dst []float32) {
	r := util.NewRNG(util.Mix64(key) ^ u.seed)
	for i := range dst {
		dst[i] = (r.Float32()*2 - 1) * u.scale
	}
}

const (
	// prefetchQueue is the Lookahead queue capacity in keys; hints beyond it
	// drop.
	prefetchQueue = 4096
	// prefetchWorkers is the Lookahead pool size.
	prefetchWorkers = 2
	// prefetchChunk is how many keys of a hint one pool worker takes at a
	// time: small enough that a minibatch's hint (a few hundred keys) is
	// dealt to both workers, large enough that the queue costs one channel
	// operation per chunk instead of one per key.
	prefetchChunk = 64
)

// Options configures a Table.
type Options struct {
	// Dir is the table's storage directory.
	Dir string
	// Dim is the embedding dimension.
	Dim int
	// Engine selects the storage engine: "" / "mlkv" / "faster" (the
	// hybrid log, the default), "lsm", or "bptree". The latter two have no
	// vector clock and refuse a blocking StalenessBound.
	Engine string
	// Shards is the number of independent engine instances the key space
	// is hash-partitioned across. Batch operations fan out across shards,
	// in parallel once the store has spilled to disk. Default 1: a single
	// store, laid out exactly as unsharded tables always were. The memory
	// budget and expected-key sizing are split evenly across shards.
	Shards int
	// StalenessBound is the consistency knob (§III-C1): BoundBSP, BoundASP,
	// BoundDisabled, or any positive SSP bound.
	StalenessBound int64
	// MemoryBytes is the in-memory buffer budget (the paper's "buffer
	// size"). Default 64 MiB.
	MemoryBytes int64
	// MutableFraction is the share of the buffer accepting in-place
	// updates. Default 0.5.
	MutableFraction float64
	// ExpectedKeys sizes the hash index.
	ExpectedKeys uint64
	// CacheEntries puts a staleness-aware hot tier of this capacity in
	// front of the store (kv.WrapCached): once the store has spilled to disk
	// Get/GetBatch consult it before the engine and serve a hit only within
	// the staleness bound, and reads fill it; Put/PutBatch update it in
	// place and RMW/Delete invalidate, always. While the table still fits in
	// MemoryBytes reads are served by the log's in-memory region and skip
	// the tier. 0 (the default) disables it.
	CacheEntries int
	// Init initializes first-touch embeddings. Default: zeros.
	Init Initializer
	// RecordsPerPage overrides the log page granularity (power of two,
	// default 1024).
	RecordsPerPage int
	// FlushPace paces each shard's background log flusher: when positive,
	// consecutive flush writes are separated by at least this gap so a
	// flush burst is smeared instead of stalling concurrent reads (see
	// faster.Config.FlushPace). Zero disables pacing.
	FlushPace time.Duration
}

// Table is one embedding table over a sharded engine store. It is safe for
// concurrent use through per-goroutine Sessions.
type Table struct {
	store  kv.Store
	engine string // canonical engine name
	dim    int
	init   Initializer

	// A hint travels to the pool as chunks of at most prefetchChunk keys,
	// copied into buffers that cycle prefetchFree → prefetchCh → a worker →
	// prefetchFree. There are prefetchQueue/prefetchChunk buffers and both
	// channels hold that many, so holding a free buffer is the right to
	// enqueue it (the send cannot block) and an empty free list is a full
	// queue.
	prefetchCh      chan []uint64
	prefetchFree    chan []uint64
	prefetchStop    chan struct{}
	prefetchDone    chan struct{}
	prefetchDropped atomic.Int64
	activeSessions  atomic.Int64
	batchGets       atomic.Int64
	batchPuts       atomic.Int64
	lookaheadCalls  atomic.Int64

	// lat times session Get/GetBatch/Put/PutBatch/ApplyGradient per op
	// class (wait-free, no allocation); Stats reports the summaries.
	lat latency.OpSet
}

// OpenTable creates or recovers an embedding table.
func OpenTable(opts Options) (*Table, error) {
	if opts.Dim <= 0 {
		return nil, errors.New("core: Dim must be positive")
	}
	if opts.Dir == "" {
		return nil, errors.New("core: Dir is required")
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("core: Shards must be non-negative, got %d", opts.Shards)
	}
	engine, err := kv.NormalizeEngine(opts.Engine)
	if err != nil {
		return nil, err
	}
	if opts.MemoryBytes == 0 {
		opts.MemoryBytes = 64 << 20
	}
	if opts.RecordsPerPage == 0 {
		opts.RecordsPerPage = 1024
	}
	store, err := kv.OpenEngine(engine, kv.ShardedConfig{
		Dir:             opts.Dir,
		Shards:          opts.Shards,
		ValueSize:       opts.Dim * 4,
		RecordsPerPage:  opts.RecordsPerPage,
		MemoryBytes:     opts.MemoryBytes,
		MutableFraction: opts.MutableFraction,
		ExpectedKeys:    opts.ExpectedKeys,
		StalenessBound:  opts.StalenessBound,
		FlushPace:       opts.FlushPace,
	}, engine)
	if err != nil {
		return nil, err
	}
	if opts.CacheEntries > 0 {
		store = kv.WrapCached(store, opts.CacheEntries)
	}
	t := &Table{
		store:        store,
		engine:       engine,
		dim:          opts.Dim,
		init:         opts.Init,
		prefetchCh:   make(chan []uint64, prefetchQueue/prefetchChunk),
		prefetchFree: make(chan []uint64, prefetchQueue/prefetchChunk),
		prefetchStop: make(chan struct{}),
		prefetchDone: make(chan struct{}),
	}
	for i := 0; i < cap(t.prefetchFree); i++ {
		t.prefetchFree <- make([]uint64, 0, prefetchChunk)
	}
	go t.prefetchPool()
	return t, nil
}

// Dim returns the embedding dimension.
func (t *Table) Dim() int { return t.dim }

// Shards returns the number of hash partitions backing the table.
func (t *Table) Shards() int { return t.store.Shards() }

// EngineName identifies the engine the way results and OPEN responses do:
// the hybrid log is "mlkv" while its vector clock runs and "faster" with
// the bound disabled; the clock-free engines go by their own names.
func (t *Table) EngineName() string {
	if t.engine != kv.EngineFaster {
		return t.engine
	}
	if t.StalenessBound() >= 0 {
		return "mlkv"
	}
	return "faster"
}

// StalenessBound returns the consistency bound the table opened with (-1
// on a clock-free engine).
func (t *Table) StalenessBound() int64 { return t.store.StalenessBound() }

// Checkpoint makes the table durable (call at a training barrier).
func (t *Table) Checkpoint() error { return t.store.Checkpoint() }

// Close stops the prefetch pool and closes the store.
func (t *Table) Close() error {
	close(t.prefetchStop)
	<-t.prefetchDone
	return t.store.Close()
}

// Stats returns the table's counters: the store's (the engine's, summed
// across shards, and the hot tier's when one fronts it) plus the ones that
// exist only above it — batch and Lookahead calls, dropped prefetch hints,
// the session gauge and the per-op-class latency summaries (LatRMW covers
// ApplyGradient).
func (t *Table) Stats() stats.Counters {
	c := t.store.Stats()
	c.BatchGets = t.batchGets.Load()
	c.BatchPuts = t.batchPuts.Load()
	c.LookaheadCalls = t.lookaheadCalls.Load()
	c.PrefetchDropped = t.prefetchDropped.Load()
	c.ActiveSessions = t.activeSessions.Load()
	c.SetLatency(&t.lat)
	return c
}

// prefetchPool runs the Lookahead workers, each on its own store session.
func (t *Table) prefetchPool() {
	defer close(t.prefetchDone)
	done := make(chan struct{})
	for w := 0; w < prefetchWorkers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			sess, err := t.store.NewSession()
			if err != nil {
				return
			}
			defer sess.Close()
			for {
				select {
				case <-t.prefetchStop:
					return
				case chunk := <-t.prefetchCh:
					sess.Lookahead(chunk) //nolint:errcheck // best-effort hint
					t.prefetchFree <- chunk
				}
			}
		}()
	}
	for w := 0; w < prefetchWorkers; w++ {
		<-done
	}
}

// Session is one worker's handle onto the table: one store session, which
// reads into and writes from the caller's own []float32 (tensor.F32Bytes).
// Not safe for concurrent use; create one per goroutine.
type Session struct {
	t *Table
	s localSession

	// create is initInto, bound once: a method value made per read would
	// be a heap allocation per call.
	create func(key uint64, cur []byte)
	ibuf   []float32 // first-touch initializer staging
	found  []bool    // batch presence flags
	oneKey [1]uint64 // the one-key batch GetCtx runs as
	closed bool
}

// NewSession registers a session on the store.
func (t *Table) NewSession() (*Session, error) {
	s, err := t.store.NewSession()
	if err != nil {
		return nil, err
	}
	t.activeSessions.Add(1)
	sess := &Session{t: t, s: s.(localSession)}
	sess.create = sess.initInto
	return sess, nil
}

// localSession is a session of the local store OpenTable opens — kv's
// sharded store, or the hot tier over it — whose sessions all have the
// read-or-create batch read.
type localSession interface {
	kv.Session
	kv.Creator
}

// Close unregisters the session. Closing twice is safe; only the first
// call releases the store session.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.t.activeSessions.Add(-1)
	s.s.Close()
}

// Get reads the embedding for key into dst (len == Dim), initializing it on
// first touch. It participates in the bounded-staleness protocol (§III-C1).
// The store writes into dst directly: when Get (or GetBatch) returns an
// error, what dst holds is undefined.
func (s *Session) Get(key uint64, dst []float32) error {
	return s.GetCtx(context.Background(), key, dst)
}

// GetCtx is Get with cancellation: a read stalled on the staleness bound
// returns ctx.Err() when ctx ends instead of waiting for the releasing
// write. No token is held after a cancelled read. It is GetBatch's one-key
// case.
func (s *Session) GetCtx(ctx context.Context, key uint64, dst []float32) error {
	if len(dst) != s.t.dim {
		return fmt.Errorf("core: dst length %d != dim %d", len(dst), s.t.dim)
	}
	// Deferred with the start time evaluated here: records on every return
	// path, including a read stalled on the staleness bound.
	defer s.t.lat.Since(latency.OpGet, time.Now())
	s.oneKey[0] = key
	return s.getBatch(ctx, s.oneKey[:], dst)
}

// getBatch is the clocked read-or-create of keys into dst: one store batch,
// in which the engine creates each absent key from the initializer in its
// turn (kv.Creator).
func (s *Session) getBatch(ctx context.Context, keys []uint64, dst []float32) error {
	s.found = util.Grow(s.found, len(keys))
	return s.s.GetOrCreateBatchCtx(ctx, keys, tensor.F32Bytes(dst), s.found, s.create)
}

// initInto encodes key's first-touch embedding into cur, which arrives
// zeroed: an absent key's slot in a read-or-create batch, or an RMW
// callback's view of an absent key.
func (s *Session) initInto(key uint64, cur []byte) {
	if s.t.init == nil {
		return
	}
	s.ibuf = util.Grow(s.ibuf, s.t.dim)
	clear(s.ibuf) // the Initializer contract: dst arrives zeroed
	s.t.init(key, s.ibuf)
	tensor.F32sToBytes(s.ibuf, cur)
}

// GetBatch reads len(keys) embeddings into dst (len == len(keys)*Dim) as
// one store batch, initializing each key on first touch inside the engine
// pass that reads it. A sharded store fans the batch out across shards (in
// parallel once it has spilled to disk). Duplicate keys each perform their
// own clocked read; deduplicate in the caller if the training step applies
// one combined update.
//
// Under a blocking staleness bound (BSP or finite SSP) the keys are instead
// read strictly in the caller's order — one engine pass per run of keys on
// the same shard, so one pass on an unsharded table — because a clocked Get
// is a token acquisition that only the matching Put releases (see kv's
// sharded GetBatchCtx for the rule). A first touch takes its token as it
// creates the key, before the next key is read. Callers that may block (the
// trainers) pass unique keys in ascending order, which keeps the
// cross-session wait graph acyclic exactly as it does on the scalar path.
func (s *Session) GetBatch(keys []uint64, dst []float32) error {
	return s.GetBatchCtx(context.Background(), keys, dst)
}

// GetBatchCtx is GetBatch with cancellation, checked on every key's
// clocked read (see GetCtx).
func (s *Session) GetBatchCtx(ctx context.Context, keys []uint64, dst []float32) error {
	if len(dst) != len(keys)*s.t.dim {
		return fmt.Errorf("core: dst length %d != %d keys × dim %d", len(dst), len(keys), s.t.dim)
	}
	defer s.t.lat.Since(latency.OpGetBatch, time.Now())
	s.t.batchGets.Add(1)
	return s.getBatch(ctx, keys, dst)
}

// Peek reads without touching the vector clock (evaluation path).
func (s *Session) Peek(key uint64, dst []float32) (bool, error) {
	if len(dst) != s.t.dim {
		return false, fmt.Errorf("core: dst length %d != dim %d", len(dst), s.t.dim)
	}
	return s.s.Peek(key, tensor.F32Bytes(dst))
}

// Put upserts the embedding for key (the backward-propagation write of
// Figure 3, line 17). Puts never wait on the staleness bound.
func (s *Session) Put(key uint64, val []float32) error {
	if len(val) != s.t.dim {
		return fmt.Errorf("core: val length %d != dim %d", len(val), s.t.dim)
	}
	defer s.t.lat.Since(latency.OpPut, time.Now())
	return s.s.Put(key, tensor.F32Bytes(val))
}

// PutBatch upserts len(keys) embeddings from vals (len == len(keys)*Dim)
// as one store batch.
func (s *Session) PutBatch(keys []uint64, vals []float32) error {
	dim := s.t.dim
	if len(vals) != len(keys)*dim {
		return fmt.Errorf("core: vals length %d != %d keys × dim %d", len(vals), len(keys), dim)
	}
	defer s.t.lat.Since(latency.OpPutBatch, time.Now())
	s.t.batchPuts.Add(1)
	return s.s.PutBatch(keys, tensor.F32Bytes(vals))
}

// ApplyGradient performs emb ← emb − lr·grad as a single storage-side
// read-modify-write (the Rmw path of Figure 4, step 8). A never-read key
// is initialized inside the same step, so it lands on init(key) − lr·grad
// exactly as a Get followed by the update would.
func (s *Session) ApplyGradient(key uint64, grad []float32, lr float32) error {
	if len(grad) != s.t.dim {
		return fmt.Errorf("core: grad length %d != dim %d", len(grad), s.t.dim)
	}
	defer s.t.lat.Since(latency.OpRMW, time.Now())
	return s.s.RMW(key, func(cur []byte, exists bool) bool {
		if !exists {
			s.initInto(key, cur)
		}
		tensor.StepBytes(cur, grad, lr)
		return true
	})
}

// Delete removes key's embedding.
func (s *Session) Delete(key uint64) error { return s.s.Delete(key) }

// Lookahead asynchronously copies the disk-resident records among keys into
// the store's mutable memory buffer (§III-C2, Fig. 5b) — the paper's
// headline optimization, and not limited by the staleness bound. Call it
// once per upcoming batch, at least one batch ahead of that batch's
// GetBatch: the copies are made by a background pool, so a hint issued with
// the read is wasted. It never blocks and keeps no reference to keys: the
// hint is copied into the pool's queue in chunks, and the chunks that do not
// fit are dropped (PrefetchDropped counts their keys).
func (s *Session) Lookahead(keys []uint64) {
	t := s.t
	t.lookaheadCalls.Add(1)
	for len(keys) > 0 {
		select {
		case chunk := <-t.prefetchFree:
			n := min(len(keys), prefetchChunk)
			t.prefetchCh <- append(chunk[:0], keys[:n]...)
			keys = keys[n:]
		default:
			t.prefetchDropped.Add(int64(len(keys)))
			return
		}
	}
}
