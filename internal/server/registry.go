package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// Registry is the server's model table: the named embedding models it
// serves, opened lazily on the first OPEN frame naming them — the server
// half of the paper's Open(model_id, dim, staleness_bound) interface.
// Handles are registry-global: every connection addresses a model by the
// same uint32, and an OPEN of an already-open model returns the existing
// handle.
type Registry struct {
	cfg RegistryConfig

	mu         sync.Mutex
	closed     bool
	byName     map[string]*Model
	byHandle   map[uint32]*Model
	nextHandle uint32
}

// RegistryConfig parameterizes a Registry.
type RegistryConfig struct {
	// Store is the template every model's store opens from on its first
	// OPEN (kv.OpenEngine):
	//   - Dir is the root directory; a model opens in Dir/<id>, its id
	//     validated first (see kv.ResolveOpen). With Dir empty the
	//     registry opens no model.
	//   - Shards is the count an OPEN requesting 0 takes (0 means 1).
	//   - StalenessBound is the bound a new model takes when its OPEN
	//     carries wire.BoundUnset. Its zero value is BSP; set it
	//     deliberately (kv.DefaultBound is a local model's).
	//   - CacheEntries is a server-side hot tier per model, shared by every
	//     connection serving it (mlkv-server -cache).
	// Each model's OPEN sets ValueSize (dim × 4), so a ValueSize set here
	// is ignored, and the store is named kv.HybridLogName of its bound.
	Store kv.ShardedConfig
	// Name identifies the server in HELLO responses (default "mlkv").
	Name string
}

// FlagBound maps mlkv-server's -staleness flag to a registry's default
// bound (RegistryConfig.Store.StalenessBound): -2 is kv.DefaultBound (ASP),
// -1 the clock off (plain FASTER), 0 BSP, n>0 SSP(n).
func FlagBound(staleness int64) (int64, error) {
	if staleness == -2 {
		return kv.DefaultBound, nil
	}
	if staleness < -1 {
		return 0, fmt.Errorf("-staleness must be -2 (asp), -1 (off) or >= 0 (bsp/ssp), got %d", staleness)
	}
	return staleness, nil
}

// BoundName renders a staleness bound the way mlkv-server's -staleness
// flag spells it.
func BoundName(bound int64) string {
	switch {
	case bound < 0:
		return "off"
	case bound == 0:
		return "bsp"
	case bound == faster.BoundAsync:
		return "asp"
	}
	return fmt.Sprintf("ssp(%d)", bound)
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.Store.Shards <= 0 {
		cfg.Store.Shards = 1
	}
	if cfg.Name == "" {
		cfg.Name = "mlkv"
	}
	return &Registry{
		cfg:      cfg,
		byName:   make(map[string]*Model),
		byHandle: make(map[uint32]*Model),
	}
}

// Name identifies the server in HELLO responses.
func (r *Registry) Name() string { return r.cfg.Name }

// Open returns the model named id, opening its store from the Store
// template on first use; opened reports that this call opened it. shards 0
// takes the template's count (and is advisory for an existing model: the
// store keeps the count it was created with). A bound other than
// wire.BoundUnset is the one the trainer declares, as in the paper's
// interface: a new model opens under it, and a live one refuses any other
// (see kv.ResolveOpen, which also holds the id and dim rules); unset, a new model
// takes the template's bound.
//
// The store opens outside the registry lock (store opens do directory
// creation and log recovery I/O), so one tenant's slow cold open never
// stalls other connections' OPEN/ATTACH/STATS; concurrent opens of the
// same name wait on one pending entry instead of double-opening.
func (r *Registry) Open(id string, dim, shards int, bound int64) (m *Model, opened bool, err error) {
	if shards < 0 {
		return nil, false, fmt.Errorf("server: model %q: negative shard count %d", id, shards)
	}
	req := kv.OpenRequest{ID: id, Dim: dim, Bound: bound, BoundSet: bound != wire.BoundUnset}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, false, errors.New("server: registry closed")
	}
	if m, ok := r.byName[id]; ok {
		r.mu.Unlock()
		<-m.ready
		if m.openErr != nil {
			return nil, false, m.openErr
		}
		live := kv.LiveModel{Dim: m.dim, Bound: m.store.StalenessBound()}
		if _, err := kv.ResolveOpen(req, &live, r.cfg.Store.StalenessBound); err != nil {
			return nil, false, err
		}
		return m, false, nil
	}
	if r.cfg.Store.Dir == "" {
		r.mu.Unlock()
		return nil, false, fmt.Errorf("server: unknown model %q (server opens no new models)", id)
	}
	bound, err = kv.ResolveOpen(req, nil, r.cfg.Store.StalenessBound)
	if err != nil {
		r.mu.Unlock()
		return nil, false, err
	}
	// Publish a pending entry, open outside the lock, then resolve it.
	m = &Model{id: id, dim: dim, ready: make(chan struct{})}
	r.byName[id] = m
	r.mu.Unlock()

	cfg := r.cfg.Store
	cfg.Dir = filepath.Join(cfg.Dir, id)
	cfg.ValueSize = dim * 4
	cfg.StalenessBound = bound
	if shards > 0 {
		cfg.Shards = shards
	}
	store, err := kv.OpenEngine(kv.EngineFaster, cfg, kv.HybridLogName(bound))

	r.mu.Lock()
	switch {
	case err != nil:
		delete(r.byName, id) // a later Open may retry
		m.openErr = fmt.Errorf("server: open model %q: %w", id, err)
	case r.closed:
		delete(r.byName, id)
		m.openErr = errors.New("server: registry closed")
		store.Close()
	default:
		m.store = store
		r.nextHandle++
		m.handle = r.nextHandle
		r.byHandle[m.handle] = m
	}
	close(m.ready)
	r.mu.Unlock()
	if m.openErr != nil {
		return nil, false, m.openErr
	}
	return m, true, nil
}

// lookup resolves a handle carried by a data frame.
func (r *Registry) lookup(handle uint32) (*Model, error) {
	r.mu.Lock()
	m, ok := r.byHandle[handle]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("server: unknown model handle %d (OPEN first)", handle)
	}
	return m, nil
}

// Models snapshots the registered models in handle order (shutdown and
// expvar iterate it).
func (r *Registry) Models() []*Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Model, 0, len(r.byHandle))
	for h := uint32(1); h <= r.nextHandle; h++ {
		if m, ok := r.byHandle[h]; ok {
			out = append(out, m)
		}
	}
	return out
}

// ReplWatermark sums the replication sequences this node has applied
// contiguously across its models — the "how caught up am I" number the
// failure detector gossips in heartbeats so promotion can pick the
// most-caught-up replica. Contiguity matters: a replica with a gap stops
// counting at the gap, so a candidate missing acknowledged writes never
// outranks one that has them all.
func (r *Registry) ReplWatermark() uint64 {
	var wm uint64
	for _, m := range r.Models() {
		m.replMu.Lock()
		wm += m.replApplied
		m.replMu.Unlock()
	}
	return wm
}

// Checkpoint makes every model durable, returning the first error.
func (r *Registry) Checkpoint() error {
	var first error
	for _, m := range r.Models() {
		if err := m.store.Checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("model %q: %w", m.id, err)
		}
	}
	return first
}

// Close closes every model's store, returning the first error. A model
// whose open is still pending resolves as "registry closed" and its
// store is closed by the opener when it lands.
func (r *Registry) Close() error {
	r.mu.Lock()
	r.closed = true
	models := make([]*Model, 0, len(r.byHandle))
	for _, m := range r.byHandle {
		models = append(models, m)
	}
	r.byName = make(map[string]*Model)
	r.byHandle = make(map[uint32]*Model)
	r.mu.Unlock()
	var first error
	for _, m := range models {
		if err := m.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Model is one served embedding model: a named store plus the serving
// counters the engine cannot see (frames, remote sessions).
type Model struct {
	id     string
	handle uint32
	dim    int
	store  kv.Store
	// ready is closed once store/openErr are resolved; concurrent opens
	// of the same name wait on it instead of double-opening.
	ready   chan struct{}
	openErr error

	batchGets       atomic.Int64
	batchPuts       atomic.Int64
	lookaheadFrames atomic.Int64
	activeSessions  atomic.Int64
	// replicaLag is the primary's stream head minus the highest REPLWRITE
	// sequence applied here contiguously — zero on primaries and
	// non-clustered servers. replMu orders the bookkeeping: frames normally
	// arrive from a single stream goroutine, but a stream teardown can
	// briefly overlap its replacement.
	replicaLag  atomic.Int64
	replMu      sync.Mutex
	replApplied uint64

	// lat holds the always-on per-op-class latency histograms, recorded
	// around the store calls in the conn handler (wait-free, shared by
	// every connection serving the model).
	lat latency.OpSet
}

// ID returns the model name.
func (m *Model) ID() string { return m.id }

// Handle returns the registry-global handle.
func (m *Model) Handle() uint32 { return m.handle }

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.dim }

// Store exposes the backing store.
func (m *Model) Store() kv.Store { return m.store }

// Stats returns the model's counters — the STATS payload: the store's
// (engine counters, plus the -cache tier's) and the serving layer's own —
// frames served, the attach balance, the replication lag, and the store
// calls timed in the conn handler.
func (m *Model) Stats() stats.Counters {
	c := m.store.Stats()
	c.BatchGets = m.batchGets.Load()
	c.BatchPuts = m.batchPuts.Load()
	c.LookaheadCalls = m.lookaheadFrames.Load()
	c.ActiveSessions = m.activeSessions.Load()
	c.ReplicaLag = m.replicaLag.Load()
	c.SetLatency(&m.lat)
	return c
}

// Latency exposes the model's per-op-class histograms (the mlkv_latency
// expvar reads through this).
func (m *Model) Latency() *latency.OpSet { return &m.lat }

// applyReplSeq folds one applied REPLWRITE frame into the replica's lag
// bookkeeping. The advertised lag is head minus the highest CONTIGUOUSLY
// applied sequence: an in-order frame advances the cursor, a replayed
// frame (seq at or below it, an idempotent re-send after a stream
// reconnect) leaves it alone, and a frame past a gap advances nothing — a
// replica that missed writes keeps advertising the full distance back to
// the loss, staying SSP-inadmissible, until the primary replays the gap.
// A head below the cursor means the primary's stream restarted its
// numbering; the cursor resets to follow the new generation.
func (m *Model) applyReplSeq(seq, head uint64) {
	m.replMu.Lock()
	switch {
	case head < m.replApplied: // new stream generation (primary restart)
		m.replApplied = seq
	case seq == m.replApplied+1: // in order: advance
		m.replApplied = seq
	case seq <= m.replApplied: // replay: already counted
	default: // gap: hold at the last contiguous sequence
	}
	var lag int64
	if head > m.replApplied {
		lag = int64(head - m.replApplied)
	}
	m.replicaLag.Store(lag)
	m.replMu.Unlock()
}
