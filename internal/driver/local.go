package driver

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// localDB serves models out of one data directory, each model a
// core.Table under <dir>/<id> on the engine Config.Engine names (the
// clocked hybrid log by default). Opening the same id twice returns the
// same model (refcounted), mirroring the server registry's by-name
// deduplication.
type localDB struct {
	dir string

	mu     sync.Mutex
	closed bool
	models map[string]*localModel
}

func (db *localDB) Target() string { return db.dir }

func (db *localDB) Open(ctx context.Context, id string, cfg Config) (Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := kv.OpenRequest{ID: id, Dim: cfg.Dim, Bound: cfg.Bound, BoundSet: cfg.BoundSet}
	if cfg.Engine != "" { // "" = caller has no preference; reopens match anything
		var err error
		if req.Engine, err = kv.NormalizeEngine(cfg.Engine); err != nil {
			return nil, err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("driver: db %q is closed", db.dir)
	}
	if m, ok := db.models[id]; ok {
		live := kv.LiveModel{Dim: m.t.Dim(), Engine: m.engine, Bound: m.t.StalenessBound()}
		if _, err := kv.ResolveOpen(req, &live, kv.DefaultBound); err != nil {
			return nil, err
		}
		m.refs++
		return &localHandle{localModel: m}, nil
	}
	if req.Engine == "" {
		req.Engine = kv.EngineFaster
	}
	bound, err := kv.ResolveOpen(req, nil, kv.DefaultBound)
	if err != nil {
		return nil, err
	}
	t, err := core.OpenTable(core.Options{
		Dir:            filepath.Join(db.dir, id),
		Dim:            cfg.Dim,
		Engine:         req.Engine,
		Shards:         cfg.Shards,
		StalenessBound: bound,
		MemoryBytes:    cfg.MemoryBytes,
		ExpectedKeys:   cfg.ExpectedKeys,
		CacheEntries:   cfg.CacheEntries,
		Init:           cfg.Init,
	})
	if err != nil {
		return nil, err
	}
	m := &localModel{db: db, id: id, engine: req.Engine, t: t, refs: 1}
	db.models[id] = m
	return &localHandle{localModel: m}, nil
}

// Close closes every model still open on the directory.
func (db *localDB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	models := make([]*localModel, 0, len(db.models))
	for _, m := range db.models {
		models = append(models, m)
	}
	db.models = make(map[string]*localModel)
	db.mu.Unlock()
	var first error
	for _, m := range models {
		if err := m.t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// localModel wraps one table. refs counts Opens; the table closes when
// the last reference is released (or when the DB closes). Each Open
// returns its own localHandle so a double Close of one handle releases
// its reference once, never a sibling's.
type localModel struct {
	db     *localDB
	id     string
	engine string // canonical: faster, lsm, or bptree
	t      *core.Table
	refs   int // guarded by db.mu
}

// localHandle is one Open's view of a shared localModel.
type localHandle struct {
	*localModel
	closed atomic.Bool
}

// Close releases this handle's reference exactly once; the table closes
// when the last handle goes.
func (h *localHandle) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	return h.localModel.release()
}

func (m *localModel) ID() string            { return m.id }
func (m *localModel) Dim() int              { return m.t.Dim() }
func (m *localModel) Shards() int           { return m.t.Shards() }
func (m *localModel) EngineName() string    { return m.t.EngineName() }
func (m *localModel) StalenessBound() int64 { return m.t.StalenessBound() }

func (m *localModel) Checkpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.t.Checkpoint()
}

func (m *localModel) Stats(ctx context.Context) (stats.Counters, error) {
	return m.t.Stats(), nil
}

func (m *localModel) NewSession(ctx context.Context) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := m.t.NewSession()
	if err != nil {
		return nil, err
	}
	return &localSession{s: s}, nil
}

// release drops one reference; the table closes when the last one goes.
func (m *localModel) release() error {
	m.db.mu.Lock()
	if m.refs == 0 { // DB already closed everything
		m.db.mu.Unlock()
		return nil
	}
	m.refs--
	last := m.refs == 0
	if last {
		delete(m.db.models, m.id)
	}
	m.db.mu.Unlock()
	if !last {
		return nil
	}
	return m.t.Close()
}

// localSession adapts core.Session to the driver seam.
type localSession struct {
	s *core.Session
}

func (s *localSession) Get(ctx context.Context, key uint64, dst []float32) error {
	return s.s.GetCtx(ctx, key, dst)
}

func (s *localSession) GetBatch(ctx context.Context, keys []uint64, dst []float32) error {
	return s.s.GetBatchCtx(ctx, keys, dst)
}

func (s *localSession) Put(ctx context.Context, key uint64, val []float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.s.Put(key, val)
}

func (s *localSession) PutBatch(ctx context.Context, keys []uint64, vals []float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.s.PutBatch(keys, vals)
}

func (s *localSession) RMW(ctx context.Context, key uint64, grad []float32, lr float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.s.ApplyGradient(key, grad, lr)
}

func (s *localSession) Peek(ctx context.Context, key uint64, dst []float32) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return s.s.Peek(key, dst)
}

func (s *localSession) Delete(ctx context.Context, key uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.s.Delete(key)
}

func (s *localSession) Lookahead(keys []uint64) error {
	s.s.Lookahead(keys)
	return nil
}

func (s *localSession) Close() { s.s.Close() }
