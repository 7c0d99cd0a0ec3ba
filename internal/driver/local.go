package driver

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// localDB serves models out of one data directory, each model a
// core.Table under <dir>/<id>. Opening the same id twice returns the same
// model (refcounted), mirroring the server registry's by-name
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
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("driver: db %q is closed", db.dir)
	}
	if m, ok := db.models[id]; ok {
		live := kv.LiveModel{Dim: m.t.Dim(), Bound: m.t.StalenessBound()}
		if _, err := kv.ResolveOpen(req, &live, kv.DefaultBound); err != nil {
			return nil, err
		}
		m.refs++
		return m, nil
	}
	bound, err := kv.ResolveOpen(req, nil, kv.DefaultBound)
	if err != nil {
		return nil, err
	}
	t, err := core.OpenTable(core.Options{
		Dir:            filepath.Join(db.dir, id),
		Dim:            cfg.Dim,
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
	m := &localModel{db: db, id: id, t: t, refs: 1}
	db.models[id] = m
	return m, nil
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
		m.refs = 0 // a handle closed after the DB releases nothing
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

// localModel wraps one table, and every Open of its id returns it. refs
// counts Opens; the table closes when the last reference is released (or
// when the DB closes). mlkv closes each handle at most once, so a double
// Close of one handle never releases a sibling's reference.
type localModel struct {
	db   *localDB
	id   string
	t    *core.Table
	refs int // guarded by db.mu
}

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
		return nil, err // a nil interface, not a typed nil *core.Session
	}
	return s, nil
}

// Close releases one reference; the table closes when the last one goes.
func (m *localModel) Close() error {
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
