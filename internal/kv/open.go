package kv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/hotcache"
	"github.com/llm-db/mlkv-go/internal/util"
)

// EngineFaster is the canonical name of the one engine, the hybrid log;
// "mlkv" and "" alias it. Whether its vector clock runs is the staleness
// bound's business, not the engine name's.
const EngineFaster = "faster"

// HybridLogName is what a hybrid-log store opened under bound is called in
// results and OPEN responses: "faster" below zero, "mlkv" otherwise. It
// labels the requested bound, not a behaviour: ASP runs no clock either.
func HybridLogName(bound int64) string {
	if bound < 0 {
		return EngineFaster
	}
	return "mlkv"
}

// DefaultBound is the staleness bound a model opens with when its opener
// names none, on a local directory and on a server left at its default:
// ASP, under which no read waits, so the clock does not run.
const DefaultBound = faster.BoundAsync

// OpenRequest is what an opener asks of a named model.
type OpenRequest struct {
	ID  string
	Dim int
	// Bound is the requested staleness bound, applied only when BoundSet.
	Bound    int64
	BoundSet bool
}

// LiveModel is what an open model runs. Bound is what its store reports:
// the bound it was opened under.
type LiveModel struct {
	Dim   int
	Bound int64
}

// maxModelID bounds model identifiers; they become directory names.
const maxModelID = 128

// maxDim bounds a model's dimension: a 4 MiB value, whose four-page
// minimum of 1 024-record log frames is already 16 GiB.
const maxDim = 1 << 20

// ResolveOpen is the open policy of both openers, the local driver and the
// server registry. It returns the staleness bound the model runs under, or
// why the request is refused.
//
// The id must be a safe directory name, since it becomes one under the
// data directory: 1 to 128 letters, digits, '.', '_' and '-', not starting
// with '.' — so it can neither escape the directory nor collide with the
// shard layout. The dim must lie in [1, 1<<20].
//
// A live model (live non-nil) refuses a request with another dim, and one
// setting another bound when either of the two blocks: two non-blocking
// bounds (ASP and -1) run the same clock-free protocol, so a live model
// under one accepts the other and keeps its own. The bound is fixed while
// the model is open: once its last handle closes, the next open may choose
// another.
//
// A new model (live nil) opens under the requested bound, or def when
// none is set.
func ResolveOpen(req OpenRequest, live *LiveModel, def int64) (int64, error) {
	if err := checkModelID(req.ID); err != nil {
		return 0, err
	}
	if req.Dim < 1 || req.Dim > maxDim {
		return 0, fmt.Errorf("kv: model %q: dim %d out of range [1, %d]", req.ID, req.Dim, maxDim)
	}
	if live != nil {
		switch {
		case live.Dim != req.Dim:
			return 0, fmt.Errorf("kv: model %q has dim %d, requested %d", req.ID, live.Dim, req.Dim)
		case req.BoundSet && req.Bound != live.Bound && (faster.BlockingBound(live.Bound) || faster.BlockingBound(req.Bound)):
			return 0, fmt.Errorf("kv: model %q runs staleness bound %d, requested %d", req.ID, live.Bound, req.Bound)
		}
		return live.Bound, nil
	}
	if req.BoundSet {
		return req.Bound, nil
	}
	return def, nil
}

func checkModelID(id string) error {
	if id == "" {
		return errors.New("kv: model id is required")
	}
	if len(id) > maxModelID {
		return fmt.Errorf("kv: model id longer than %d bytes", maxModelID)
	}
	if id[0] == '.' {
		return fmt.Errorf("kv: model id %q may not start with '.'", id)
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("kv: model id %q contains %q (allowed: letters, digits, '.', '_', '-')", id, c)
		}
	}
	return nil
}

// ShardedConfig sizes a hash-partitioned hybrid-log store. The memory and
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
	// MemoryBytes is the total in-memory budget across all shards, spent
	// on each shard's in-memory log pages.
	MemoryBytes int64
	// MutableFraction is the share of each shard's in-memory log pages
	// accepting in-place updates (default 0.5).
	MutableFraction float64
	// ExpectedKeys sizes the hash indexes (total across all shards).
	ExpectedKeys uint64
	// StalenessBound configures the vector clock (see faster.Config): only
	// a blocking bound runs it; ASP and -1 are both plain FASTER.
	StalenessBound int64
	// SyncWrites fsyncs every flushed log page.
	SyncWrites bool
	// FlushPace paces each shard's background flusher (see
	// faster.Config.FlushPace); zero disables pacing.
	FlushPace time.Duration
	// CacheEntries puts a staleness-aware hot tier of this capacity in
	// front of the shards, shared by every session of the store (see
	// shardedStore); 0 runs none.
	CacheEntries int
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

// openShard opens one shard in dir with its share of the budgets.
func openShard(dir string, cfg ShardedConfig, mem int64, keys uint64) (*faster.Store, error) {
	recBytes := int64(cfg.ValueSize + 24)
	memPages := max(int(mem/(recBytes*int64(cfg.RecordsPerPage))), 4)
	mutPages := min(max(int(float64(memPages)*cfg.MutableFraction), 1), memPages-2)
	return faster.Open(faster.Config{
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
}

// engineMetaFile names the engine a store directory was written by. Only
// the hybrid log is left, so the file always reads "faster"; it stays as a
// stored check, so that a directory another engine wrote is refused by
// name instead of opening as an empty log.
const engineMetaFile = "ENGINE"

func checkEngineMeta(dir string) error {
	path := filepath.Join(dir, engineMetaFile)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return util.WriteDurable(path, []byte(EngineFaster+"\n"))
	}
	if err != nil {
		return err
	}
	if got := strings.TrimSpace(string(buf)); got != EngineFaster {
		return fmt.Errorf("kv: directory %s holds a %q store, cannot reopen as %q", dir, got, EngineFaster)
	}
	return nil
}

// OpenEngine opens a hybrid-log store under cfg — the one place every CLI,
// server, table, and driver derives a store from a total budget, so the
// split policy, the directory layout, and the engine and shard-count guards
// cannot drift between them. engine must be "faster" or one of its aliases,
// "" and "mlkv"; name is what Store.Name reports.
func OpenEngine(engine string, cfg ShardedConfig, name string) (Store, error) {
	switch engine {
	case "", "mlkv", EngineFaster:
	default:
		return nil, fmt.Errorf("kv: unknown engine %q (want faster)", engine)
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
	if err := checkEngineMeta(cfg.Dir); err != nil {
		return nil, err
	}
	if err := util.ValidateShardMeta(cfg.Dir, cfg.Shards); err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	st := &shardedStore{name: name, vs: cfg.ValueSize}
	if cfg.CacheEntries > 0 {
		st.tier = hotcache.New[byte](cfg.CacheEntries, cfg.ValueSize)
	}
	mem, keys := splitBudget(cfg.MemoryBytes, cfg.Shards, cfg.ExpectedKeys)
	for i := 0; i < cfg.Shards; i++ {
		d := cfg.Dir
		if cfg.Shards > 1 {
			d = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%03d", i))
		}
		sh, err := openShard(d, cfg, mem, keys)
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
