package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/hotcache"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Router is the client side of the cluster: one connection pool per node,
// a cached Map, and routing that lifts internal/kv's shard fan-out one
// level up — group keys by owning server, fan batches out in parallel,
// keep the blocking-bound serial gate. Reads are staleness-bound-aware
// when RouterOptions.ReadReplicas is set: ASP reads may hit any replica,
// BSP always hits the primary, and SSP hits a replica only while its
// advertised lag passes hotcache.Admissible. A NOT_OWNER redirect carries
// the server's newer map; the router adopts it and retries.
type Router struct {
	opts RouterOptions
	cur  atomic.Pointer[Map]

	mu     sync.Mutex
	pools  map[string]*client.Client // node address → pool
	closed bool

	redirects    atomic.Int64
	replicaReads atomic.Int64
}

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Client configures every node pool (conns, timeouts).
	Client client.Options
	// ReadReplicas routes admissible reads to replicas; off, every
	// operation goes to owning primaries.
	ReadReplicas bool
}

// lagRefresh is how long a replica's advertised lag is trusted before the
// router re-fetches it. Only SSP reads consult lag.
const lagRefresh = 100 * time.Millisecond

// maxRedirects bounds NOT_OWNER retries per operation: each retry adopts
// the redirecting server's map, so more than a few means the topology is
// flapping faster than a client can follow.
const maxRedirects = 3

// Owner-unreachable retry: when an operation fails at the transport level
// (the owning node may be dead), the router refetches the map from any
// live member — a promotion shows up as a newer epoch — and retries, with
// jittered exponential backoff while the cluster has not yet noticed the
// death. The budget bounds the worst case: the caller's context deadline
// still cuts every sleep short.
const (
	ownerRetryBudget = 8
	ownerBackoffMin  = 25 * time.Millisecond
	ownerBackoffMax  = 500 * time.Millisecond
)

// ErrNoLiveOwner reports a key range whose owning primary is unreachable
// and for which no failover produced a reachable owner within the retry
// budget — the cluster is genuinely degraded, not just slow.
var ErrNoLiveOwner = errors.New("cluster: no live owner for key range")

// transportFailure reports whether err says the peer may be dead and the
// operation is safe to repeat — as opposed to a server refusal
// (ServerError), a routing redirect (NotOwnerError), the caller's own
// cancellation, a malformed map, or a non-idempotent frame that may already
// have run (UnackedError). Only transport failures are worth retrying
// against a refreshed map.
func transportFailure(err error) bool {
	if err == nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errNoOwner) {
		return false
	}
	var se *client.ServerError
	var ue *client.UnackedError
	return !notOwner(err) && !errors.As(err, &se) && !errors.As(err, &ue)
}

// notOwner reports whether err is a NOT_OWNER redirect.
func notOwner(err error) bool {
	var noe *client.NotOwnerError
	return errors.As(err, &noe)
}

// NewRouter wraps an already-dialed seed pool and the map it served.
func NewRouter(m *Map, seedAddr string, seed *client.Client, opts RouterOptions) *Router {
	r := &Router{opts: opts, pools: map[string]*client.Client{seedAddr: seed}}
	r.cur.Store(m.Clone())
	return r
}

// Map returns the router's current topology (immutable).
func (r *Router) Map() *Map { return r.cur.Load() }

// FillStats adds what the client side of the cluster owns to c: every node
// pool's redial counters, the topology the router holds, the
// redirects it followed and the keys replicas served.
func (r *Router) FillStats(c *stats.Counters) {
	r.mu.Lock()
	for _, p := range r.pools {
		p.AddCounters(c)
	}
	r.mu.Unlock()
	m := r.Map()
	c.ClusterNodes, c.ClusterEpoch = int64(len(m.Nodes)), int64(m.Epoch)
	c.ClusterRedirects += r.redirects.Load()
	c.ReplicaReads += r.replicaReads.Load()
}

// Close tears down every node pool.
func (r *Router) Close() error {
	r.mu.Lock()
	r.closed = true
	pools := make([]*client.Client, 0, len(r.pools))
	for _, p := range r.pools {
		pools = append(pools, p)
	}
	r.pools = map[string]*client.Client{}
	r.mu.Unlock()
	var first error
	for _, p := range pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pool returns (dialing if needed) the connection pool for one node.
func (r *Router) pool(addr string) (*client.Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("cluster: router closed")
	}
	if p, ok := r.pools[addr]; ok {
		return p, nil
	}
	p, err := client.Dial(addr, r.opts.Client)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial node %s: %w", addr, err)
	}
	r.pools[addr] = p
	return p, nil
}

// adopt installs a map carried by a NOT_OWNER redirect if it is newer
// than the router's current one.
func (r *Router) adopt(payload []byte) {
	m, err := DecodeMap(payload)
	if err != nil {
		return // a corrupt redirect map is ignored; the retry re-asks
	}
	r.mu.Lock()
	if m.Epoch > r.cur.Load().Epoch {
		r.cur.Store(m)
	}
	r.mu.Unlock()
}

// refetchMap asks the cluster for a fresher topology than cur, probing
// every member except excludeID (the node we just failed against — it
// cannot absolve itself) and adopting any newer map. Reports whether a
// newer epoch was installed.
func (r *Router) refetchMap(ctx context.Context, cur *Map, excludeID string) bool {
	for i := range cur.Nodes {
		n := &cur.Nodes[i]
		if n.ID == excludeID {
			continue
		}
		p, err := r.pool(n.Addr)
		if err != nil {
			continue
		}
		payload, err := p.ClusterMapRaw(ctx)
		if err != nil {
			continue
		}
		r.adopt(payload)
	}
	return r.Map().Epoch > cur.Epoch
}

// retryOwner handles one transport failure against the node ownerID:
// within the budget it refetches the map from the surviving members (a
// replica promotion shows up as a newer epoch) and — when the topology
// has not moved yet — sleeps a jittered exponential backoff bounded by
// ctx, giving the failure detector time to act. Reports whether the
// caller should retry the operation.
func (r *Router) retryOwner(ctx context.Context, retries *int, ownerID string, err error) bool {
	if !transportFailure(err) || *retries >= ownerRetryBudget || ctx.Err() != nil {
		return false
	}
	*retries++
	cur := r.Map()
	if r.refetchMap(ctx, cur, ownerID) {
		return true // new topology: retry immediately
	}
	t := time.NewTimer(util.Backoff(*retries, ownerBackoffMin, ownerBackoffMax))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// finalize shapes an operation's terminal error: a transport failure that
// survived the whole retry budget becomes the typed ErrNoLiveOwner, so
// callers can tell "this range currently has no reachable owner" from an
// ordinary failed request.
func (r *Router) finalize(err error, retries int) error {
	if retries >= ownerRetryBudget && transportFailure(err) {
		return fmt.Errorf("%w (gave up after %d retries: %v)", ErrNoLiveOwner, retries, err)
	}
	return err
}

// redirected handles one operation error: if it is a NOT_OWNER redirect
// and the operation has followed fewer than maxRedirects, the attached map
// is adopted and the caller should retry. Anything else is final.
func (r *Router) redirected(err error, redirects *int) bool {
	var noe *client.NotOwnerError
	if !errors.As(err, &noe) || *redirects >= maxRedirects {
		return false
	}
	*redirects++
	r.adopt(noe.Map)
	r.redirects.Add(1)
	return true
}

// OpenModel opens the model on every node in the current map, each of
// which refuses a spec its live model does not match, and returns the
// routed model. An unreachable replica does not fail the open — replicas
// are a read optimization, so the model opens there lazily when a read
// first routes to it, and readTarget falls back to the primary until then.
// Primaries stay strict: every range owner must accept the spec.
func (r *Router) OpenModel(ctx context.Context, spec client.OpenSpec) (*RModel, error) {
	m := &RModel{r: r, spec: spec, models: map[string]*client.Model{}, lags: map[string]*lagEntry{}}
	mp := r.Map()
	for i := range mp.Nodes {
		if _, err := m.model(ctx, &mp.Nodes[i]); err != nil {
			if mp.Nodes[i].Role == RoleReplica {
				continue
			}
			return nil, err
		}
	}
	return m, nil
}

// RModel is one model routed across the cluster.
type RModel struct {
	r    *Router
	spec client.OpenSpec

	mu     sync.Mutex
	models map[string]*client.Model // node id → per-node model
	lags   map[string]*lagEntry     // replica node id → cached lag

	dim    int
	shards int
	engine string
	bound  int64
	once   sync.Once // latches geometry and bound from the first successful open
}

// lagUnknown is the lag of a replica that has not (or cannot be) asked:
// infinite, so no finite bound admits it.
const lagUnknown = int64(math.MaxInt64)

// lagEntry caches one replica's advertised lag between refreshes.
type lagEntry struct {
	lag atomic.Int64
	at  atomic.Int64 // mono nanos of the last refresh
}

// model returns (opening if needed) this model on one node.
func (m *RModel) model(ctx context.Context, n *Node) (*client.Model, error) {
	m.mu.Lock()
	if cm, ok := m.models[n.ID]; ok {
		m.mu.Unlock()
		return cm, nil
	}
	m.mu.Unlock()
	p, err := m.r.pool(n.Addr)
	if err != nil {
		return nil, err
	}
	cm, err := p.OpenModel(ctx, m.spec)
	if err != nil {
		return nil, fmt.Errorf("cluster: open %q on node %s: %w", m.spec.ID, n.ID, err)
	}
	m.mu.Lock()
	if prev, ok := m.models[n.ID]; ok { // lost a race; keep the first
		m.mu.Unlock()
		return prev, nil
	}
	m.models[n.ID] = cm
	m.mu.Unlock()
	m.once.Do(func() {
		m.dim = cm.Dim()
		m.shards = cm.Shards()
		m.engine = cm.Name()
		m.bound = cm.StalenessBound()
	})
	return cm, nil
}

// ID returns the model name.
func (m *RModel) ID() string { return m.spec.ID }

// Dim returns the embedding dimension.
func (m *RModel) Dim() int { return m.dim }

// Shards returns one node's hash-partition count (the intra-node layer —
// cluster ranges partition above it).
func (m *RModel) Shards() int { return m.shards }

// Name identifies the routed engine in benchmark output.
func (m *RModel) Name() string {
	return fmt.Sprintf("cluster(%d×%s)", len(m.r.Map().Nodes), m.engine)
}

// StalenessBound returns the bound the model runs under, fixed while it is
// open.
func (m *RModel) StalenessBound() int64 { return m.bound }

// CheckpointCtx checkpoints the model on every primary.
func (m *RModel) CheckpointCtx(ctx context.Context) error {
	mp := m.r.Map()
	for _, p := range mp.Primaries() {
		cm, err := m.model(ctx, p)
		if err != nil {
			return err
		}
		if err := cm.CheckpointCtx(ctx); err != nil {
			return err
		}
	}
	return nil
}

// StatsCtx merges every node's counters with stats.Counters.Add (scalars
// sum, ReplicaLag reports the laggiest replica, latency summaries fold).
// An unreachable replica is skipped — its counters are unavailable, not
// zero, and a dead read optimization must not take down the stats of a
// serving cluster. Primaries stay strict.
func (m *RModel) StatsCtx(ctx context.Context) (stats.Counters, error) {
	mp := m.r.Map()
	var out stats.Counters
	for i := range mp.Nodes {
		cm, err := m.model(ctx, &mp.Nodes[i])
		if err == nil {
			var s stats.Counters
			if s, err = cm.StatsCtx(ctx); err == nil {
				out = out.Add(s)
				continue
			}
		}
		if mp.Nodes[i].Role == RoleReplica {
			continue
		}
		return out, err
	}
	return out, nil
}

// lagOf returns one replica's advertised replication lag, refreshed at
// most every lagRefresh. Unreachable replicas report an infinite lag, so
// admissibility holds them out of rotation instead of guessing.
func (m *RModel) lagOf(ctx context.Context, rep *Node) int64 {
	m.mu.Lock()
	e := m.lags[rep.ID]
	if e == nil {
		e = &lagEntry{}
		e.lag.Store(lagUnknown)
		m.lags[rep.ID] = e
	}
	m.mu.Unlock()
	now := time.Now().UnixNano()
	last := e.at.Load()
	if last != 0 && now-last < int64(lagRefresh) {
		return e.lag.Load()
	}
	if !e.at.CompareAndSwap(last, now) {
		return e.lag.Load() // someone else is refreshing
	}
	lag := lagUnknown // a replica that cannot say is held out of rotation
	if cm, err := m.model(ctx, rep); err == nil {
		if s, err := cm.StatsCtx(ctx); err == nil {
			lag = s.ReplicaLag
		}
	}
	e.lag.Store(lag)
	return lag
}

// replicaAdmissible decides whether a read under bound may be served by
// rep right now — the cluster face of the staleness ladder: ASP (and a
// disabled clock) always admissible, BSP never, SSP only while the
// replica's advertised lag passes the same Admissible predicate the hot
// cache uses.
func (m *RModel) replicaAdmissible(ctx context.Context, bound int64, rep *Node) bool {
	if bound == 0 {
		return false
	}
	if !faster.BlockingBound(bound) {
		return true
	}
	return hotcache.Admissible(bound, m.lagOf(ctx, rep))
}

// NewSession opens a routed session for one goroutine (see RSession).
func (m *RModel) NewSession(ctx context.Context) (*RSession, error) {
	return &RSession{m: m, sess: map[string]*client.Session{}}, nil
}
