// Package core implements MLKV proper: the embedding-table abstraction the
// paper's §III exposes to ML frameworks. A Table is the typed layer over
// the kv store: it stores one embedding table (fixed dimension) in a
// sharded FASTER-style hybrid log with MLKV's bounded-staleness
// consistency, and adds what is table-level: the
// float32 codec, seeded first-touch initialization, and the Lookahead
// interface, whose hint queue (HintQueue, shared with the remote driver)
// moves disk-resident embeddings into the store's mutable memory buffer
// ahead of use. Its sessions are batch-first: a single key, per-op
// timing and the per-handle call counts are the public mlkv layer's.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Initializer produces the initial embedding for a key seen for the first
// time. dst has the table's dimension; it arrives zeroed.
type Initializer func(key uint64, dst []float32)

// Fill writes key's first-touch embedding into dst: it clears dst, then
// runs f, if there is one, on it. Every first touch goes through it, so
// none can hand an initializer a dirty buffer.
func (f Initializer) Fill(key uint64, dst []float32) {
	clear(dst)
	if f != nil {
		f(key, dst)
	}
}

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

// A local hint is served in chunks of hintChunk keys by hintWorkers store
// sessions: chunks small enough that a minibatch's hint (a few hundred keys)
// is dealt to both workers, large enough that the queue costs one channel
// operation per chunk instead of one per key.
const (
	hintChunk   = 64
	hintWorkers = 2
)

// Options configures a Table.
type Options struct {
	// Dir is the table's storage directory.
	Dir string
	// Dim is the embedding dimension.
	Dim int
	// Shards is the number of independent engine instances the key space
	// is hash-partitioned across. Batch operations fan out across shards,
	// in parallel once the store has spilled to disk. Default 1: a single
	// store, laid out exactly as unsharded tables always were. The memory
	// budget and expected-key sizing are split evenly across shards.
	Shards int
	// StalenessBound is the consistency knob (§III-C1): 0 trains
	// bulk-synchronous (a read waits for every outstanding update on the
	// record), a positive value is an SSP bound, and faster.BoundAsync
	// (ASP) or -1 (plain FASTER) turn the clock off; those two are one
	// clock-free protocol (see faster.BlockingBound).
	StalenessBound int64
	// MemoryBytes is the in-memory buffer budget (the paper's "buffer
	// size"). Default 64 MiB.
	MemoryBytes int64
	// ExpectedKeys sizes the hash index.
	ExpectedKeys uint64
	// CacheEntries puts a staleness-aware hot tier of this capacity in
	// front of the store's shards (kv.ShardedConfig.CacheEntries): once the
	// store has spilled to disk GetBatch consults it before the engine
	// and serves a hit only within the staleness bound, and reads fill it;
	// PutBatch updates it in place and RMW/Delete invalidate, always.
	// While the table still fits in MemoryBytes reads are served by the
	// log's in-memory region and skip the tier. 0 (the default) disables it.
	CacheEntries int
	// Init initializes first-touch embeddings. Default: zeros.
	Init Initializer
	// RecordsPerPage overrides the log page granularity (power of two,
	// default 1024).
	RecordsPerPage int
}

// Table is one embedding table over a sharded hybrid-log store. It is safe for
// concurrent use through per-goroutine Sessions.
type Table struct {
	store kv.Store
	dim   int
	init  Initializer

	hints          *HintQueue
	activeSessions atomic.Int64
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
	if opts.MemoryBytes == 0 {
		opts.MemoryBytes = 64 << 20
	}
	if opts.RecordsPerPage == 0 {
		opts.RecordsPerPage = 1024
	}
	store, err := kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
		Dir:            opts.Dir,
		Shards:         opts.Shards,
		ValueSize:      opts.Dim * 4,
		RecordsPerPage: opts.RecordsPerPage,
		MemoryBytes:    opts.MemoryBytes,
		ExpectedKeys:   opts.ExpectedKeys,
		StalenessBound: opts.StalenessBound,
		CacheEntries:   opts.CacheEntries,
	}, kv.EngineFaster)
	if err != nil {
		return nil, err
	}
	hints := NewHintQueue(hintChunk, hintWorkers, func() (HintSession, error) { return store.NewSession() })
	return &Table{store: store, dim: opts.Dim, init: opts.Init, hints: hints}, nil
}

// Dim returns the embedding dimension.
func (t *Table) Dim() int { return t.dim }

// Shards returns the number of hash partitions backing the table.
func (t *Table) Shards() int { return t.store.Shards() }

// EngineName identifies the engine the way results and OPEN responses do:
// the hybrid log is "mlkv" while its vector clock runs and "faster" with
// the bound disabled.
func (t *Table) EngineName() string { return kv.HybridLogName(t.StalenessBound()) }

// StalenessBound returns the consistency bound the table opened with (-1
// with the clock off).
func (t *Table) StalenessBound() int64 { return t.store.StalenessBound() }

// Checkpoint makes the table durable (call at a training barrier).
func (t *Table) Checkpoint() error { return t.store.Checkpoint() }

// Close stops the hint queue and closes the store.
func (t *Table) Close() error {
	t.hints.Close()
	return t.store.Close()
}

// Stats returns the table's counters: the store's (the engine's, summed
// across shards, and the hot tier's when one fronts it) plus the ones that
// exist only above it — dropped prefetch hints and the session gauge.
func (t *Table) Stats() stats.Counters {
	c := t.store.Stats()
	c.PrefetchDropped = t.hints.Dropped()
	c.ActiveSessions = t.activeSessions.Load()
	return c
}

// Session is one worker's handle onto the table: one store session, which
// reads into and writes from the caller's own []float32 (tensor.F32Bytes).
// Every operation takes the caller's ctx first; the local driver hands a
// Session out as its driver.Session as is, so it has exactly the seam's
// operations: a single-key read or put is a one-key GetBatch or PutBatch.
// Not safe for concurrent use; create one per goroutine.
type Session struct {
	t *Table
	s kv.Session

	// create is initInto, bound once: a method value made per read would
	// be a heap allocation per call.
	create func(key uint64, cur []byte)
	ibuf   []float32 // first-touch initializer staging
	found  []bool    // batch presence flags
	closed bool
}

// NewSession registers a session on the store.
func (t *Table) NewSession() (*Session, error) {
	s, err := t.store.NewSession()
	if err != nil {
		return nil, err
	}
	t.activeSessions.Add(1)
	sess := &Session{t: t, s: s}
	sess.create = sess.initInto
	return sess, nil
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

// initInto encodes key's first-touch embedding into cur: an absent key's
// slot in a read-or-create batch, or an RMW callback's view of an absent
// key.
func (s *Session) initInto(key uint64, cur []byte) {
	if s.t.init == nil {
		return // cur arrives zeroed
	}
	s.ibuf = util.Grow(s.ibuf, s.t.dim)
	s.t.init.Fill(key, s.ibuf)
	tensor.F32sToBytes(s.ibuf, cur)
}

// GetBatch reads len(keys) embeddings into dst (len == len(keys)*Dim) as
// one store batch, initializing each key on first touch inside the engine
// pass that reads it (kv.Session.GetOrCreateBatchCtx). It participates in
// the bounded-staleness protocol (§III-C1): ctx is checked on every key's
// clocked read, and a read stalled on the bound returns ctx.Err() when ctx
// ends instead of waiting for the releasing write, holding no token after.
// The store writes into dst directly: after an error, what dst holds is
// undefined. A sharded store fans the batch out across shards (in parallel
// once it has spilled to disk). Duplicate keys each perform their own
// clocked read; deduplicate in the caller if the training step applies one
// combined update.
//
// Under a blocking staleness bound (BSP or finite SSP) the keys are instead
// read strictly in the caller's order — one engine pass per run of keys on
// the same shard, so one pass on an unsharded table — because a clocked Get
// is a token acquisition that only the matching Put releases (see kv's
// sharded GetBatchCtx for the rule). A first touch takes its token as it
// creates the key, before the next key is read. Callers that may block (the
// trainers) pass unique keys in ascending order, which keeps the
// cross-session wait graph acyclic exactly as it does on the scalar path.
func (s *Session) GetBatch(ctx context.Context, keys []uint64, dst []float32) error {
	if len(dst) != len(keys)*s.t.dim {
		return fmt.Errorf("core: dst length %d != %d keys × dim %d", len(dst), len(keys), s.t.dim)
	}
	s.found = util.Grow(s.found, len(keys))
	return s.s.GetOrCreateBatchCtx(ctx, keys, tensor.F32Bytes(dst), s.found, s.create)
}

// Peek reads without touching the vector clock (evaluation path).
func (s *Session) Peek(ctx context.Context, key uint64, dst []float32) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if len(dst) != s.t.dim {
		return false, fmt.Errorf("core: dst length %d != dim %d", len(dst), s.t.dim)
	}
	return s.s.Peek(key, tensor.F32Bytes(dst))
}

// PutBatch upserts len(keys) embeddings from vals (len == len(keys)*Dim)
// as one store batch (the backward-propagation write of Figure 3, line
// 17). Puts never wait on the staleness bound.
func (s *Session) PutBatch(ctx context.Context, keys []uint64, vals []float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dim := s.t.dim
	if len(vals) != len(keys)*dim {
		return fmt.Errorf("core: vals length %d != %d keys × dim %d", len(vals), len(keys), dim)
	}
	return s.s.PutBatch(keys, tensor.F32Bytes(vals))
}

// RMW performs emb ← emb − lr·grad as a single storage-side
// read-modify-write (the Rmw path of Figure 4, step 8). A never-read key
// is initialized inside the same step, so it lands on init(key) − lr·grad
// exactly as a Get followed by the update would.
func (s *Session) RMW(ctx context.Context, key uint64, grad []float32, lr float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(grad) != s.t.dim {
		return fmt.Errorf("core: grad length %d != dim %d", len(grad), s.t.dim)
	}
	return s.s.RMW(key, func(cur []byte, exists bool) bool {
		if !exists {
			s.initInto(key, cur)
		}
		tensor.StepBytes(cur, grad, lr)
		return true
	})
}

// Delete removes key's embedding.
func (s *Session) Delete(ctx context.Context, key uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.s.Delete(key)
}

// Lookahead asynchronously copies the disk-resident records among keys into
// the store's mutable memory buffer (§III-C2, Fig. 5b) — the paper's
// headline optimization, and not limited by the staleness bound. Call it
// once per upcoming batch, at least one batch ahead of that batch's
// GetBatch: the copies are made by the table's hint queue in the
// background, so a hint issued with the read is wasted. It never blocks,
// never fails and keeps no reference to keys. The queue's one drop rule
// applies (see HintQueue): from the first 64-key chunk that finds the queue
// full, the rest of the hint drops and PrefetchDropped counts its keys.
func (s *Session) Lookahead(keys []uint64) error {
	s.t.hints.Push(keys)
	return nil
}
