package kv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/llm-db/mlkv-go/internal/bptree"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/lsm"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Engine names accepted across the public API, the wire protocol, and the
// server flags. "faster" is the canonical name of the hybrid-log engine;
// "mlkv" and "" alias it (whether its vector clock runs is the staleness
// bound's business, not the engine name's).
const (
	EngineFaster = "faster"
	EngineLSM    = "lsm"
	EngineBPTree = "bptree"
)

// NormalizeEngine maps an engine name (or alias, or "") to its canonical
// form, rejecting unknown names with the accepted set in the message.
func NormalizeEngine(engine string) (string, error) {
	switch strings.ToLower(engine) {
	case "", "mlkv", EngineFaster:
		return EngineFaster, nil
	case EngineLSM:
		return EngineLSM, nil
	case EngineBPTree:
		return EngineBPTree, nil
	}
	return "", fmt.Errorf("kv: unknown engine %q (want faster, lsm, or bptree)", engine)
}

// ClockFree reports whether the canonical engine name has no vector
// clock, so it can never honor a blocking staleness bound (BSP or finite
// SSP). Callers reject explicit blocking bounds on such engines up front
// rather than silently serving unbounded reads.
func ClockFree(engine string) bool { return engine == EngineLSM || engine == EngineBPTree }

// checkBound refuses a blocking staleness bound (BSP or finite SSP) on an
// engine without a vector clock.
func checkBound(engine string, bound int64) error {
	if ClockFree(engine) && faster.BlockingBound(bound) {
		return fmt.Errorf("kv: engine %q has no vector clock and cannot honor blocking staleness bound %d (use the faster engine, or an async/disabled bound)", engine, bound)
	}
	return nil
}

// DefaultBound is the staleness bound a model opens with when its opener
// names none, on a local directory and on a server left at its default:
// ASP, which every engine runs — the hybrid log keeps its clock and never
// blocks on it, a clock-free engine runs without one.
const DefaultBound = faster.BoundAsync

// OpenRequest is what an opener asks of a named model.
type OpenRequest struct {
	ID  string
	Dim int
	// Engine is a canonical engine name, or "" for no preference.
	Engine string
	// Bound is the requested staleness bound, applied only when BoundSet.
	Bound    int64
	BoundSet bool
}

// LiveModel is what an open model runs. Bound is what its store reports:
// -1 when no clock runs.
type LiveModel struct {
	Dim    int
	Engine string
	Bound  int64
}

// ResolveOpen is the open policy of both openers, the local driver and the
// server registry. It returns the staleness bound the model runs under, or
// why the request is refused.
//
// A live model (live non-nil) refuses a request with another dim, one
// naming another engine, and one setting a bound other than the one the
// model reports; a model reporting -1 runs no clock, so it also accepts
// any non-blocking bound. The bound is fixed while the model is open: once
// its last handle closes, the next open may choose another.
//
// A new model (live nil) opens under the requested bound, or def when
// none is set. A clock-free engine refuses a requested blocking bound and
// runs a blocking default as -1.
func ResolveOpen(req OpenRequest, live *LiveModel, def int64) (int64, error) {
	if live != nil {
		switch {
		case live.Dim != req.Dim:
			return 0, fmt.Errorf("kv: model %q has dim %d, requested %d", req.ID, live.Dim, req.Dim)
		case req.Engine != "" && req.Engine != live.Engine:
			return 0, fmt.Errorf("kv: model %q runs engine %q, requested %q", req.ID, live.Engine, req.Engine)
		case req.BoundSet && req.Bound != live.Bound && (live.Bound != -1 || faster.BlockingBound(req.Bound)):
			return 0, fmt.Errorf("kv: model %q runs staleness bound %d, requested %d", req.ID, live.Bound, req.Bound)
		}
		return live.Bound, nil
	}
	if req.BoundSet {
		return req.Bound, checkBound(req.Engine, req.Bound)
	}
	if ClockFree(req.Engine) && faster.BlockingBound(def) {
		return -1, nil
	}
	return def, nil
}

// ShardedConfig sizes a hash-partitioned engine store. The memory and
// expected-key budgets are totals: S shards together use the same
// resources one unsharded store would, so 1-vs-N comparisons are fair.
type ShardedConfig struct {
	// Dir is the root directory. One shard stores directly in it; more
	// get shard-NNN subdirectories. The shard count and the engine are
	// recorded in metadata files and a mismatched reopen is refused.
	Dir string
	// Shards is the partition count (0 and 1 both mean unsharded).
	Shards int
	// ValueSize is the fixed value payload in bytes.
	ValueSize int
	// RecordsPerPage is the hybrid log's page granularity (default 256).
	// The log does not persist it: reopen a directory with the page size
	// it was written with.
	RecordsPerPage int
	// MemoryBytes is the total in-memory budget across all shards: log
	// pages for the hybrid log, memtable plus block cache (half each) for
	// the LSM-tree, buffer pool for the B+tree.
	MemoryBytes int64
	// MutableFraction is the share of each hybrid-log shard's pages
	// accepting in-place updates (default 0.5).
	MutableFraction float64
	// ExpectedKeys sizes the hash indexes (total across all shards).
	ExpectedKeys uint64
	// StalenessBound configures the vector clock (see faster.Config). The
	// clock-free engines refuse a blocking one.
	StalenessBound int64
	// SyncWrites fsyncs every flushed log page / WAL record / page write.
	SyncWrites bool
	// FlushPace paces each hybrid-log shard's background flusher (see
	// faster.Config.FlushPace); zero disables pacing.
	FlushPace time.Duration
}

// splitBudget divides the total memory and index budgets evenly over
// shards. A non-zero key budget never rounds down to zero, which a shard
// would read as "unset" and size at the engine's large default.
func splitBudget(memoryBytes int64, shards int, expectedKeys uint64) (memPerShard int64, keysPerShard uint64) {
	keysPerShard = expectedKeys / uint64(shards)
	if expectedKeys > 0 && keysPerShard == 0 {
		keysPerShard = 1
	}
	return memoryBytes / int64(shards), keysPerShard
}

// openShard opens one shard of the named engine in dir with its share of
// the budgets.
func openShard(engine, dir string, cfg ShardedConfig, mem int64, keys uint64) (shard, error) {
	switch engine {
	case EngineLSM:
		half := max(int(mem/2), 64<<10)
		st, err := lsm.Open(lsm.Config{
			Dir: dir, ValueSize: cfg.ValueSize,
			MemtableBytes: half, CacheBytes: half, SyncWAL: cfg.SyncWrites,
		})
		if err != nil {
			return nil, err
		}
		return lsmShard(st), nil
	case EngineBPTree:
		st, err := bptree.Open(bptree.Config{
			Dir: dir, ValueSize: cfg.ValueSize,
			PoolPages: max(int(mem/4096), 64), SyncWrites: cfg.SyncWrites,
		})
		if err != nil {
			return nil, err
		}
		return bptreeShard(st), nil
	}
	recBytes := int64(cfg.ValueSize + 24)
	memPages := max(int(mem/(recBytes*int64(cfg.RecordsPerPage))), 4)
	mutPages := min(max(int(float64(memPages)*cfg.MutableFraction), 1), memPages-2)
	st, err := faster.Open(faster.Config{
		Dir:            dir,
		ValueSize:      cfg.ValueSize,
		RecordsPerPage: cfg.RecordsPerPage,
		MemPages:       memPages,
		MutablePages:   mutPages,
		ExpectedKeys:   keys,
		StalenessBound: cfg.StalenessBound,
		SyncWrites:     cfg.SyncWrites,
		FlushPace:      cfg.FlushPace,
	})
	if err != nil {
		return nil, err
	}
	return &fasterShard{Store: st}, nil
}

// engineMetaFile pins a store directory to one engine, so reopening with a
// different engine fails crisply instead of misparsing on-disk state.
const engineMetaFile = "ENGINE"

func checkEngineMeta(dir, engine string) error {
	path := filepath.Join(dir, engineMetaFile)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(engine+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	if got := strings.TrimSpace(string(buf)); got != engine {
		return fmt.Errorf("kv: directory %s holds a %q store, cannot reopen as %q", dir, got, engine)
	}
	return nil
}

// OpenEngine opens a store of the named engine ("faster" with aliases ""
// and "mlkv", "lsm", or "bptree") under cfg — the one place every CLI,
// server, table, and driver derives an engine store from a total budget,
// so the split policy, the directory layout, and the engine and
// shard-count guards cannot drift between them. name is what Store.Name
// reports.
func OpenEngine(engine string, cfg ShardedConfig, name string) (Store, error) {
	eng, err := NormalizeEngine(engine)
	if err != nil {
		return nil, err
	}
	if err := checkBound(eng, cfg.StalenessBound); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.RecordsPerPage == 0 {
		cfg.RecordsPerPage = 256
	}
	if cfg.MutableFraction == 0 {
		cfg.MutableFraction = 0.5
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkEngineMeta(cfg.Dir, eng); err != nil {
		return nil, err
	}
	if err := util.ValidateShardMeta(cfg.Dir, cfg.Shards); err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	st := &shardedStore{name: name, vs: cfg.ValueSize}
	mem, keys := splitBudget(cfg.MemoryBytes, cfg.Shards, cfg.ExpectedKeys)
	for i := 0; i < cfg.Shards; i++ {
		d := cfg.Dir
		if cfg.Shards > 1 {
			d = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%03d", i))
		}
		sh, err := openShard(eng, d, cfg, mem, keys)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.shards = append(st.shards, sh)
	}
	// Persist the count only after every shard opened, so a failed open
	// never pins the directory to a count holding no data.
	if err := util.WriteShardMeta(cfg.Dir, cfg.Shards); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}
