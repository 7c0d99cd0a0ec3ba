// Package kv is the one embedding-access layer over the disk engine: the
// byte-level Store/Session contract every framework integration programs
// against, and the sharded store that opens, hash-partitions, fans out
// over, checkpoints and sums FASTER-style hybrid logs (internal/faster),
// with an optional staleness-aware hot tier in front (internal/hotcache).
// It mirrors how the paper integrates PERSIA/DGL/DGL-KE with its storage
// behind one layer instead of one storage stack each.
package kv

import (
	"context"
	"fmt"

	"github.com/llm-db/mlkv-go/internal/stats"
)

// Store is a disk-backed key-value store with fixed-size values. Its one
// implementer is in-process: the sharded engine store OpenEngine opens,
// with its hot tier when ShardedConfig.CacheEntries asks for one. A remote
// model is reached through the public API, whose driver speaks the wire's
// batch frames directly.
type Store interface {
	// NewSession returns a handle for one worker goroutine. Sessions are
	// not safe for concurrent use; the Store itself is.
	NewSession() (Session, error)
	// ValueSize is the fixed value payload in bytes.
	ValueSize() int
	// Name identifies the engine in benchmark output.
	Name() string
	// Shards is the hash-partition count backing the store.
	Shards() int
	// StalenessBound returns the bound of MLKV's bounded-staleness clock,
	// shared by all shards and fixed when the store opens; -1 when the
	// clock is off (plain FASTER).
	StalenessBound() int64
	// Resident reports whether every record the store holds is still in
	// its engine's memory, so that no read can wait on a disk: true for a
	// hybrid-log store none of whose shards has evicted a page yet; false
	// from the first eviction on, and on a store recovered from a
	// checkpoint. The answer is monotone (it never returns to true) and
	// costs one atomic load per shard. The layers that exist only to hide
	// disk latency — a hot tier in front of a local engine,
	// goroutine-per-shard batch fan-out — stand aside while it holds.
	Resident() bool
	// Checkpoint makes the contents durable.
	Checkpoint() error
	// Stats returns the counters this store and everything beneath it
	// own: the engine's, summed across shards, plus a hot tier's.
	Stats() stats.Counters
	// Close releases resources.
	Close() error
}

// Session is one worker's operation handle.
type Session interface {
	// Get reads key's value into dst (len must equal ValueSize).
	Get(key uint64, dst []byte) (bool, error)
	// Peek reads without consistency effects: no vector-clock
	// participation, no copy toward the mutable tail. Evaluation traffic
	// uses it so scoring a model never acquires tokens that would stall
	// training reads. With the clock off it is Get.
	Peek(key uint64, dst []byte) (bool, error)
	// Put upserts key's value.
	Put(key uint64, val []byte) error
	// Delete removes key.
	Delete(key uint64) error
	// RMW applies fn to key's current value (zeroed when absent) and
	// stores the result if fn returns true; a declining fn must leave cur
	// untouched, and the record (or its absence) stays as it was. One
	// atomic in-storage step on the hybrid log, which is what the wire's
	// APPLY frame runs server-side.
	RMW(key uint64, fn func(cur []byte, exists bool) bool) error
	// Lookahead hints that keys will be read soon, returning how many
	// records the engine reports moving toward memory.
	Lookahead(keys []uint64) (int, error)
	// GetBatchCtx reads len(keys) values into vals (len(keys)×ValueSize)
	// under ctx, recording presence in found and zeroing the value slot of
	// any missing key. A clocked read waiting on the staleness bound gives
	// up with ctx.Err() when ctx ends, without acquiring a token: the
	// serving layer honors a remote client's deadline through it, so an
	// abandoned request cannot strand a token. Callers go through
	// SessionGetBatch[Ctx], which check the buffer lengths.
	GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error
	// GetOrCreateBatchCtx is GetBatchCtx, except that a missing key is
	// created in its turn: create writes its first value into the key's
	// zeroed slot, the engine stores it, and found reports true. On the
	// hybrid log that happens inside the engine pass that reads the key,
	// with the read's staleness token already taken (see
	// faster.Session.GetBatchAt). create may run on a goroutine other than
	// the caller's, but never while another of the batch's create calls is
	// running, so it may reuse the session's scratch state.
	GetOrCreateBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool, create func(key uint64, val []byte)) error
	// PutBatch upserts len(keys) values from vals; see SessionPutBatch.
	PutBatch(keys []uint64, vals []byte) error
	// Close releases the session.
	Close()
}

// SessionGetBatch reads len(keys) values into vals (len(keys)×valueSize).
// Missing keys get found[i]=false and a zeroed value slot.
func SessionGetBatch(s Session, valueSize int, keys []uint64, vals []byte, found []bool) error {
	return SessionGetBatchCtx(context.Background(), s, valueSize, keys, vals, found)
}

// SessionGetBatchCtx is SessionGetBatch bounded by ctx.
func SessionGetBatchCtx(ctx context.Context, s Session, valueSize int, keys []uint64, vals []byte, found []bool) error {
	if len(vals) != len(keys)*valueSize || len(found) != len(keys) {
		return fmt.Errorf("kv: GetBatch buffers sized %d/%d for %d keys × %d bytes",
			len(vals), len(found), len(keys), valueSize)
	}
	return s.GetBatchCtx(ctx, keys, vals, found)
}

// SessionPutBatch upserts len(keys) values from vals (len(keys)×valueSize).
func SessionPutBatch(s Session, valueSize int, keys []uint64, vals []byte) error {
	if len(vals) != len(keys)*valueSize {
		return fmt.Errorf("kv: PutBatch vals sized %d for %d keys × %d bytes",
			len(vals), len(keys), valueSize)
	}
	return s.PutBatch(keys, vals)
}
