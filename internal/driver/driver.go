// Package driver is the seam between mlkv's public API and the places an
// embedding model can live: a local disk directory (the in-process
// core.Table engine) or a remote mlkv-server (the internal/client pool
// speaking the wire protocol). The public mlkv package programs against
// the DB/Model/Session interfaces here, so application code is identical
// against either target — the paper's Open(model_id, dim, staleness_bound)
// served locally or as a shared storage service.
//
// The seam carries only what differs between the two targets: batch
// primitives and what a target owns — the store or the wire path, first
// touch, the hot tier and the hint queue. What both share lives once in
// mlkv: a single key as a batch of one, per-op latency, the batch and
// Lookahead call counts, the model id and close-once per handle.
//
// Every operation is context-first: deadlines and cancellation are
// honored on staleness waits (local) and network round trips (remote).
// The public package supplies context.Background() for its convenience
// wrappers.
package driver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// Scheme prefixes a remote target: "mlkv://host:port", or a comma-
// separated seed list "mlkv://host1,host2,host3" for a cluster. Anything
// else is a local directory.
const Scheme = "mlkv://"

// DefaultPort is assumed when a remote target's host omits its port.
const DefaultPort = "7070"

// IsRemote reports whether target names a remote mlkv-server.
func IsRemote(target string) bool { return strings.HasPrefix(target, Scheme) }

// ConnectOptions configures Connect for remote targets (local ones ignore
// it).
type ConnectOptions struct {
	// Conns is the connection-pool size (default 2). Size it to the
	// number of concurrently blocking sessions: under BSP or finite SSP a
	// blocked remote read must not queue behind the write that unblocks
	// it on a shared connection.
	Conns int
	// ReadReplicas lets a cluster target route admissible reads to
	// replicas: ASP reads may hit any replica, SSP reads a replica whose
	// advertised lag passes the bound, BSP always the primary. Off, every
	// operation goes to owning primaries. Ignored by non-cluster targets.
	ReadReplicas bool
}

// Config carries one model's open parameters across the seam.
type Config struct {
	// Dim is the embedding dimension.
	Dim int
	// Shards is the hash-partition count (0 = target default).
	Shards int
	// Bound is the staleness bound; applied only when BoundSet. Unset, a
	// new model opens under the target's default (kv.DefaultBound locally,
	// the server's -staleness remotely) and a live one keeps its bound.
	Bound    int64
	BoundSet bool
	// MemoryBytes / ExpectedKeys size the local engine; a remote server
	// owns its own sizing and ignores them.
	MemoryBytes  int64
	ExpectedKeys uint64
	// CacheEntries attaches a staleness-aware hot tier of this capacity in
	// front of the model's read path: above the local engine, or
	// client-side for a remote model. 0 disables it.
	CacheEntries int
	// Init produces first-touch embeddings. The local engine runs it
	// inside storage; the remote driver runs it client-side on a miss and
	// writes the result back, so a given key initializes identically on
	// every worker (seed it deterministically).
	Init core.Initializer
}

// DB is one target: a local data directory or a remote server.
type DB interface {
	// Open creates or looks up the named model.
	Open(ctx context.Context, id string, cfg Config) (Model, error)
	// Target echoes the Connect target string.
	Target() string
	// Close releases the target: open models for a local DB, the
	// connection pool for a remote one.
	Close() error
}

// Model is one named embedding model behind either driver.
type Model interface {
	Dim() int
	Shards() int
	// EngineName identifies the backing store: "mlkv", "faster" (the
	// clock off), or "remote(<name>)".
	EngineName() string
	// StalenessBound is the bound the model runs under, fixed while it is
	// open (see kv.ResolveOpen).
	StalenessBound() int64
	Checkpoint(ctx context.Context) error
	// Stats returns the model's counters. A local model reports the core
	// table's view; a remote model reports the server's (merged across a
	// cluster's nodes) overlaid with what this process owns: the client
	// tier, dropped hints, redials and cluster routing. mlkv overlays the
	// handle's own batch and Lookahead counts and latencies on either.
	Stats(ctx context.Context) (stats.Counters, error)
	NewSession(ctx context.Context) (Session, error)
	// Close releases one Open's reference. mlkv calls it at most once per
	// handle.
	Close() error
}

// Session is one worker's handle. Not safe for concurrent use. Reads are
// written into dst as they arrive: after an error its contents are undefined.
// A single-key read or put is the caller's one-key GetBatch or PutBatch.
type Session interface {
	GetBatch(ctx context.Context, keys []uint64, dst []float32) error
	PutBatch(ctx context.Context, keys []uint64, vals []float32) error
	RMW(ctx context.Context, key uint64, grad []float32, lr float32) error
	Peek(ctx context.Context, key uint64, dst []float32) (bool, error)
	Delete(ctx context.Context, key uint64) error
	// Lookahead is asynchronous on both drivers, never blocks and keeps no
	// reference to keys. Both push into a core.HintQueue with one drop rule:
	// from the first chunk that finds the queue full, the rest of the hint
	// drops, and PrefetchDropped counts those keys.
	Lookahead(keys []uint64) error
	Close()
}

// ParseTarget splits a remote target into dialable host:port addresses:
// "mlkv://host:port" yields one, "mlkv://a,b,c" one per seed. A host
// without a port takes DefaultPort; IPv6 hosts must be bracketed
// ("mlkv://[::1]:7070"). Empty targets and empty list entries are
// descriptive errors, not dial failures.
func ParseTarget(target string) ([]string, error) {
	if !IsRemote(target) {
		return nil, fmt.Errorf("driver: target %q is not remote (missing %q prefix)", target, Scheme)
	}
	raw := strings.TrimPrefix(target, Scheme)
	if strings.TrimSpace(raw) == "" {
		return nil, fmt.Errorf("driver: target %q names no server address", target)
	}
	parts := strings.Split(raw, ",")
	addrs := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("driver: target %q has an empty host entry", target)
		}
		addr, err := withDefaultPort(p)
		if err != nil {
			return nil, fmt.Errorf("driver: target %q: %w", target, err)
		}
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// withDefaultPort normalizes one host entry to host:port.
func withDefaultPort(hostport string) (string, error) {
	_, _, err := net.SplitHostPort(hostport)
	if err == nil {
		return hostport, nil
	}
	var ae *net.AddrError
	if !errors.As(err, &ae) || !strings.Contains(ae.Err, "missing port") {
		return "", err // e.g. an unbracketed IPv6 literal: "too many colons"
	}
	host := hostport
	if strings.HasPrefix(host, "[") && strings.HasSuffix(host, "]") {
		host = host[1 : len(host)-1]
	}
	if host == "" {
		return "", errors.New("empty host")
	}
	return net.JoinHostPort(host, DefaultPort), nil
}

// Connect opens a target. "mlkv://host[:port][,host...]" dials a server
// (or bootstraps a cluster router from the first reachable seed); anything
// else is a local directory (created on first Open).
func Connect(target string, opts ConnectOptions) (DB, error) {
	if target == "" {
		return nil, fmt.Errorf("driver: empty target")
	}
	if IsRemote(target) {
		addrs, err := ParseTarget(target)
		if err != nil {
			return nil, err
		}
		return connectRemote(target, addrs, opts)
	}
	return &localDB{dir: target, models: make(map[string]*localModel)}, nil
}
