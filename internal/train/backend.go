// Package train implements the training pipelines of the paper's
// evaluation: synchronous (BSP), bounded-staleness (SSP), and fully
// asynchronous (ASP) out-of-core training of DLRM, KGE, and GNN models over
// two embedding backends — ModelBackend, a public-API mlkv.Model (a local
// directory or a remote mlkv-server, clock on or off), and MemBackend,
// sharded memory — with per-stage time instrumentation (embedding access,
// forward, backward) and periodic quality evaluation — everything needed
// to regenerate Figures 2 and 6–11.
//
// There is one training loop (run.go): a handle and a goroutine per
// worker, the sample budget and deadline, the optional per-round barrier,
// stage timing, periodic evaluation, and first-error-stops-everyone. A
// trainer (ctr.go, kge.go, gnn.go) supplies its option defaults, a
// per-worker step/apply and an evaluation function, nothing else.
//
// Every step accesses storage through the batched gather/scatter path
// (gather.go): the step's keys are deduplicated and sorted, one GetBatch
// fetches every unique embedding, gradients accumulate per unique key,
// and one PutBatch writes everything back — so the vector-clock protocol
// applies to each unique key exactly once per step, and a remote backend
// pays two framed round trips per step instead of two per key.
package train

import (
	"fmt"
	"sync"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Backend abstracts an embedding store for the trainers.
type Backend interface {
	// Name identifies the engine in results.
	Name() string
	// NewHandle returns a per-worker handle.
	NewHandle() (Handle, error)
	// Dim is the embedding dimension.
	Dim() int
}

// Handle is one worker's embedding-store handle.
//
// Clock discipline: under a bounded-staleness backend a key's slot in a
// GetBatch acquires a staleness token that only the matching PutBatch
// releases, so every key read by GetBatch must be written back by exactly
// one PutBatch before the step ends. Batch calls that may
// block (any finite bound) additionally require unique keys in ascending
// order, which keeps the cross-worker wait graph acyclic; the gather
// helper enforces both invariants for the trainers.
type Handle interface {
	// GetBatch reads len(keys) embeddings into dst (len(keys)*Dim),
	// initializing missing keys on first touch, as one batched storage
	// call where the engine has one.
	GetBatch(keys []uint64, dst []float32) error
	// PutBatch writes len(keys) embeddings from vals (len(keys)*Dim) as
	// one batched storage call where the engine has one.
	PutBatch(keys []uint64, vals []float32) error
	// Peek reads without consistency effects (evaluation). Missing keys
	// leave dst zeroed and return false.
	Peek(key uint64, dst []float32) (bool, error)
	// Lookahead hints that keys will be read soon (best-effort, async; the
	// implementation copies what it keeps of keys). Call it once per
	// upcoming batch, at least one batch ahead of that batch's GetBatch: a
	// hint issued with the read is wasted.
	Lookahead(keys []uint64)
	// Close releases the handle.
	Close()
}

// peekOrZero is the evaluators' read: a key no worker has touched yet
// scores as the zero embedding.
func peekOrZero(h Handle, key uint64, dst []float32) {
	if found, _ := h.Peek(key, dst); !found {
		clear(dst)
	}
}

// --- public-API backend (mlkv.Model, local or remote) ---

// ModelBackend adapts a public mlkv.Model to the trainer seam — the same
// backend for an in-process table and a remote mlkv-server, because the
// public API hides the target behind its driver. A worker's per-step
// gather and scatter travel as one GetBatch and one PutBatch (one framed
// round trip each on a remote model), Lookahead hints are asynchronous on
// both targets, and evaluation reads are clock-free Peeks.
type ModelBackend struct {
	M            *mlkv.Model
	UseLookahead bool
}

// NewModelBackend wraps a model. useLookahead enables Lookahead hints
// (MLKV's prefetch interface); when false Lookahead is a no-op (the
// plain-FASTER baseline, which has no such interface).
func NewModelBackend(m *mlkv.Model, useLookahead bool) *ModelBackend {
	return &ModelBackend{M: m, UseLookahead: useLookahead}
}

// Name identifies the engine ("mlkv", "faster", or "remote(<engine>)").
func (b *ModelBackend) Name() string { return b.M.EngineName() }

// Dim returns the embedding dimension.
func (b *ModelBackend) Dim() int { return b.M.Dim() }

// NewHandle registers a session on the model.
func (b *ModelBackend) NewHandle() (Handle, error) {
	s, err := b.M.NewSession()
	if err != nil {
		return nil, err
	}
	return &modelHandle{b: b, s: s}, nil
}

type modelHandle struct {
	b *ModelBackend
	s *mlkv.Session
}

func (h *modelHandle) GetBatch(keys []uint64, dst []float32) error {
	return h.s.GetBatch(keys, dst)
}
func (h *modelHandle) PutBatch(keys []uint64, vals []float32) error {
	return h.s.PutBatch(keys, vals)
}
func (h *modelHandle) Peek(key uint64, dst []float32) (bool, error) {
	return h.s.Peek(key, dst)
}
func (h *modelHandle) Lookahead(keys []uint64) {
	if h.b.UseLookahead {
		h.s.Lookahead(keys) //nolint:errcheck // best-effort hint
	}
}
func (h *modelHandle) Close() { h.s.Close() }

// --- sharded in-memory backend ---

// MemBackend is a sharded in-memory embedding store: the stand-in both for
// specialized frameworks' proprietary in-memory storage (Figure 6's
// baselines) and for DGL-DDP's two-instance RAM deployment (Figure 11a).
type MemBackend struct {
	NameStr string
	DimN    int
	Init    core.Initializer
	shards  []memShard
	mask    uint64
}

type memShard struct {
	mu sync.RWMutex
	m  map[uint64][]float32
}

// NewMemBackend builds an in-memory backend with 64 shards.
func NewMemBackend(name string, dim int, init core.Initializer) *MemBackend {
	const n = 64
	b := &MemBackend{NameStr: name, DimN: dim, Init: init, shards: make([]memShard, n), mask: n - 1}
	for i := range b.shards {
		b.shards[i].m = make(map[uint64][]float32)
	}
	return b
}

// Name identifies the engine.
func (b *MemBackend) Name() string { return b.NameStr }

// Dim returns the embedding dimension.
func (b *MemBackend) Dim() int { return b.DimN }

// NewHandle returns a handle (the backend is internally synchronized).
func (b *MemBackend) NewHandle() (Handle, error) {
	return &memHandle{b: b, groups: make([][]int, len(b.shards))}, nil
}

type memHandle struct {
	b      *MemBackend
	groups [][]int // reusable per-shard index groups for batches
	miss   []int   // reusable per-shard miss list
}

func (b *MemBackend) shardOf(key uint64) int { return int(util.Mix64(key) & b.mask) }

// GetBatch groups the batch's keys by shard and takes each shard lock once
// per group instead of once per key; misses are initialized outside the
// lock and inserted under one write lock per shard.
func (h *memHandle) GetBatch(keys []uint64, dst []float32) error {
	dim := h.b.DimN
	if len(dst) != len(keys)*dim {
		return fmt.Errorf("train: dst length %d != %d keys × dim %d", len(dst), len(keys), dim)
	}
	for sh, idxs := range h.groupByShard(keys) {
		if len(idxs) == 0 {
			continue
		}
		s := &h.b.shards[sh]
		h.miss = h.miss[:0]
		s.mu.RLock()
		for _, i := range idxs {
			if v, ok := s.m[keys[i]]; ok {
				copy(dst[i*dim:(i+1)*dim], v)
			} else {
				h.miss = append(h.miss, i)
			}
		}
		s.mu.RUnlock()
		if len(h.miss) == 0 {
			continue
		}
		for _, i := range h.miss {
			h.b.Init.Fill(keys[i], dst[i*dim:(i+1)*dim])
		}
		s.mu.Lock()
		for _, i := range h.miss {
			seg := dst[i*dim : (i+1)*dim]
			if v, ok := s.m[keys[i]]; ok {
				copy(seg, v) // raced with another worker's first touch
			} else {
				s.m[keys[i]] = append([]float32(nil), seg...)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// PutBatch takes each shard lock once per per-shard group.
func (h *memHandle) PutBatch(keys []uint64, vals []float32) error {
	dim := h.b.DimN
	if len(vals) != len(keys)*dim {
		return fmt.Errorf("train: vals length %d != %d keys × dim %d", len(vals), len(keys), dim)
	}
	for sh, idxs := range h.groupByShard(keys) {
		if len(idxs) == 0 {
			continue
		}
		s := &h.b.shards[sh]
		s.mu.Lock()
		for _, i := range idxs {
			val := vals[i*dim : (i+1)*dim]
			if v, ok := s.m[keys[i]]; ok {
				copy(v, val)
			} else {
				s.m[keys[i]] = append([]float32(nil), val...)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

func (h *memHandle) groupByShard(keys []uint64) [][]int {
	for i := range h.groups {
		h.groups[i] = h.groups[i][:0]
	}
	for i, k := range keys {
		sh := h.b.shardOf(k)
		h.groups[sh] = append(h.groups[sh], i)
	}
	return h.groups
}

func (h *memHandle) Peek(key uint64, dst []float32) (bool, error) {
	sh := &h.b.shards[h.b.shardOf(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	if ok {
		copy(dst, v)
	}
	sh.mu.RUnlock()
	return ok, nil
}

func (h *memHandle) Lookahead([]uint64) {}
func (h *memHandle) Close()             {}
