// Package client is the remote face of an mlkv-server: a connection pool
// speaking the internal/wire protocol, from which callers open any number
// of named models — the network half of the paper's
// Open(model_id, dim, staleness_bound) interface. Each opened Model
// exposes the same kv.Store/kv.Session interfaces the in-process stores
// implement, so the harnesses that work on raw values (mlkv-ycsb -addr and
// the network sweep, through driver.DialKV) run against a remote model
// unchanged.
//
// Sessions are assigned to pooled connections round-robin and announce
// themselves to the server with an ATTACH frame (and a DETACH on Close),
// so the server's per-model session accounting tracks remote workers
// truthfully. Every connection has a reader goroutine that demultiplexes
// responses by correlation ID, so sessions sharing a connection pipeline
// their requests: the second request is on the wire before the first
// response returns. Batch operations travel as single frames and fan into
// the server's sharded store as one batched call — the unit that
// amortizes the network round trip. A single-key Get, Peek or Put is a
// batch of one: no server serves a single-key read or put frame.
package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// maxKeysPerFrame splits larger batches into multiple frames; it must stay
// within wire.MaxBatchKeys.
const maxKeysPerFrame = 4096

// Options configures Dial.
type Options struct {
	// Conns is the pool size (default 2). Each server connection is
	// served by one engine session per attached model and handled
	// serially on the server, so parallelism across a model is
	// min(Conns, concurrent sessions); sessions beyond Conns share
	// connections via pipelining. Set it to the worker count for full
	// fan-out.
	Conns int
	// MaxFrame bounds incoming response frames (default wire.DefaultMaxFrame).
	MaxFrame uint32
	// DialTimeout bounds each TCP connect (default DefaultDialTimeout).
	DialTimeout time.Duration

	// dial overrides the TCP dial for tests (write-counting conns).
	dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// Client is a connection pool onto one mlkv-server. Models are opened
// from it with OpenModel; the Client itself carries no store state.
type Client struct {
	opts Options
	addr string
	// connMu guards the conns slice's elements: a pooled connection that
	// died is evicted and replaced on the next checkout, so one mid-pipeline
	// failure costs the requests in flight, not every later request on the
	// slot. The slice itself never changes length after Dial.
	connMu     sync.RWMutex
	conns      []*conn
	poolClosed bool
	next       atomic.Uint64
	serverName string

	// Redial breaker state, guarded by connMu. Every slot dials the same
	// address, so one slot's dial failure is evidence about them all:
	// consecutive failures open a shared jittered-backoff window during
	// which further redial attempts fail fast on the cached error instead
	// of queueing a fresh TCP connect against a host already known dead.
	dialFails   int       // consecutive failed redials
	dialNext    time.Time // no redial before this instant
	lastDialErr error     // what the breaker fast-fails with

	dialRetries  atomic.Int64 // redial attempts actually made
	dialBackoffs atomic.Int64 // redials refused by the breaker window
}

// Redial backoff: the first failed redial opens a dialBackoffMin window,
// doubling per consecutive failure up to dialBackoffMax, each window
// jittered ±50% so a fleet of clients does not hammer a rebooting server
// in lockstep.
const (
	dialBackoffMin = 10 * time.Millisecond
	dialBackoffMax = time.Second
)

// AddCounters adds the counters this pool owns — its redials — to s.
func (c *Client) AddCounters(s *stats.Counters) {
	s.DialRetries += c.dialRetries.Load()
	s.DialBackoffs += c.dialBackoffs.Load()
}

// DefaultDialTimeout bounds each TCP connect and HELLO handshake unless
// Options.DialTimeout says otherwise.
const DefaultDialTimeout = 5 * time.Second

// Dial connects the pool and performs the HELLO handshake, failing fast
// on a protocol-version mismatch.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	if opts.MaxFrame == 0 {
		opts.MaxFrame = wire.DefaultMaxFrame
	}
	if opts.DialTimeout == 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	c := &Client{opts: opts, addr: addr}
	for i := 0; i < opts.Conns; i++ {
		cn, err := dialConn(addr, opts)
		if err != nil {
			c.Close()
			return nil, err
		}
		cn.idx = i
		c.conns = append(c.conns, cn)
	}
	// The handshake rides the dial budget: an accepting-but-silent host
	// (half-dead, or a fault-injection blackhole) must cost one timeout,
	// not a forever-hung Dial.
	hctx, hcancel := context.WithTimeout(context.Background(), opts.DialTimeout)
	p, err := c.conns[0].roundTripCtx(hctx, wire.OpHello, wire.EncodeHello())
	hcancel()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	_, name, err := wire.DecodeHelloResp(p)
	c.conns[0].release(p)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c.serverName = name
	return c, nil
}

// ServerName identifies the server (from the HELLO response).
func (c *Client) ServerName() string { return c.serverName }

// NotOwnerError reports a data op the server refused because another
// cluster node owns the key's hash range. Map is the server's current
// encoded cluster topology (internal/cluster's codec — this package cannot
// import it, since the cluster router imports this package), so the caller
// refreshes and re-routes without an extra round trip.
type NotOwnerError struct{ Map []byte }

// Error describes the redirect.
func (e *NotOwnerError) Error() string {
	return "client: server does not own the key's hash range (cluster map attached)"
}

// ClusterMapRaw fetches the server's encoded cluster map — the bootstrap
// probe. A server not running in cluster mode answers with an empty map.
func (c *Client) ClusterMapRaw(ctx context.Context) ([]byte, error) {
	cn, err := c.pick()
	if err != nil {
		return nil, err
	}
	p, err := cn.roundTripCtx(ctx, wire.OpClusterMap, nil)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), p...)
	cn.release(p)
	return out, nil
}

// Close tears down every pooled connection; outstanding requests and all
// models opened from this client fail afterwards.
func (c *Client) Close() error {
	c.connMu.Lock()
	c.poolClosed = true
	conns := append([]*conn(nil), c.conns...)
	c.connMu.Unlock()
	var first error
	for _, cn := range conns {
		if err := cn.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// connAt returns the healthy connection at slot, evicting and re-dialing a
// dead one: a connection poisoned mid-pipeline fails only the requests that
// were in flight on it, and the slot heals on its next checkout.
func (c *Client) connAt(slot int) (*conn, error) {
	c.connMu.RLock()
	cn := c.conns[slot]
	c.connMu.RUnlock()
	if !cn.broken() {
		return cn, nil
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.poolClosed {
		return nil, errors.New("client: closed")
	}
	cn = c.conns[slot]
	if !cn.broken() {
		return cn, nil
	}
	// The breaker: inside an open backoff window the checkout fails fast
	// on the cached error — against a dead host, thousands of checkouts
	// must not each queue a TCP connect.
	now := time.Now()
	if now.Before(c.dialNext) {
		c.dialBackoffs.Add(1)
		return nil, fmt.Errorf("client: redial %s: backing off: %w", c.addr, c.lastDialErr)
	}
	c.dialRetries.Add(1)
	fresh, err := c.redial()
	if err != nil {
		c.dialFails++
		c.dialNext = now.Add(util.Backoff(c.dialFails, dialBackoffMin, dialBackoffMax))
		c.lastDialErr = err
		return nil, err
	}
	c.dialFails = 0
	c.dialNext = time.Time{}
	c.lastDialErr = nil
	fresh.idx = slot
	c.conns[slot] = fresh
	return fresh, nil
}

// redial dials and handshakes one replacement connection. The HELLO is
// bounded by DialTimeout: a blackholed host accepts the connect and then
// says nothing, and an unbounded handshake there would hang the checkout
// (and everyone queued on connMu) forever.
func (c *Client) redial() (*conn, error) {
	fresh, err := dialConn(c.addr, c.opts)
	if err != nil {
		return nil, fmt.Errorf("client: redial %s: %w", c.addr, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.DialTimeout)
	p, err := fresh.roundTripCtx(ctx, wire.OpHello, wire.EncodeHello())
	cancel()
	if err != nil {
		fresh.close()
		return nil, fmt.Errorf("client: redial %s: handshake: %w", c.addr, err)
	}
	fresh.release(p)
	return fresh, nil
}

// pick returns the next pooled connection round-robin, healing dead slots.
func (c *Client) pick() (*conn, error) {
	return c.connAt(int(c.next.Add(1) % uint64(len(c.conns))))
}

// OpenSpec names the model an OpenModel call wants.
type OpenSpec struct {
	// ID is the model name (letters, digits, '.', '_', '-').
	ID string
	// Dim is the embedding dimension; must match an existing model.
	Dim int
	// Shards requests a hash-partition count for a newly created model
	// (0 lets the server choose; advisory for an existing model).
	Shards int
	// Bound is the staleness bound the model runs under. It is fixed while
	// the model is open on the server: a live model refuses any other
	// (see kv.ResolveOpen). wire.BoundUnset takes the server's default for
	// a new model and the running bound of a live one.
	Bound int64
}

// OpenModel creates or looks up the named model on the server and returns
// its handle. Opening the same name twice returns equivalent models — the
// server deduplicates by name.
func (c *Client) OpenModel(ctx context.Context, spec OpenSpec) (*Model, error) {
	req := wire.EncodeOpen(spec.ID, spec.Dim, spec.Shards, spec.Bound)
	cn, err := c.pick()
	if err != nil {
		return nil, fmt.Errorf("client: open model %q: %w", spec.ID, err)
	}
	p, err := cn.roundTripCtx(ctx, wire.OpOpen, req)
	if err != nil {
		return nil, fmt.Errorf("client: open model %q: %w", spec.ID, err)
	}
	handle, dim, shards, bound, name, err := wire.DecodeOpenResp(p)
	cn.release(p)
	if err != nil {
		return nil, fmt.Errorf("client: open model %q: %w", spec.ID, err)
	}
	if dim != spec.Dim {
		return nil, fmt.Errorf("client: model %q: server dim %d != requested %d", spec.ID, dim, spec.Dim)
	}
	return &Model{c: c, handle: handle, id: spec.ID, dim: dim, shards: shards, bound: bound, name: name}, nil
}

// Model is one named model on the server: a remote kv.Store, every
// method delegating to the server.
type Model struct {
	c      *Client
	handle uint32
	id     string
	dim    int
	shards int
	bound  int64  // the staleness bound the server reported at open
	name   string // the server store's Name
}

// ID returns the model name.
func (m *Model) ID() string { return m.id }

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.dim }

// ValueSize returns the model's fixed value payload size (Dim × 4).
func (m *Model) ValueSize() int { return m.dim * 4 }

// Shards returns the server store's hash-partition count.
func (m *Model) Shards() int { return m.shards }

// StalenessBound returns the bound the server runs the model under, fixed
// while it is open.
func (m *Model) StalenessBound() int64 { return m.bound }

// Resident is false: every read of a remote model can wait — on the wire
// if not on the server's disk — so a tier in front of it always has a
// round trip to save.
func (m *Model) Resident() bool { return false }

// Name identifies the remote store in benchmark output.
func (m *Model) Name() string { return "remote(" + m.name + ")" }

// Close releases nothing on the server (the registry owns the model's
// lifecycle); it exists to satisfy kv.Store. Close the Client to tear
// down the connections.
func (m *Model) Close() error { return nil }

// Checkpoint asks the server to make the model durable.
func (m *Model) Checkpoint() error { return m.CheckpointCtx(context.Background()) }

// CheckpointCtx is Checkpoint bounded by ctx.
func (m *Model) CheckpointCtx(ctx context.Context) error {
	cn, err := m.c.pick()
	if err != nil {
		return err
	}
	p, err := cn.roundTripCtx(ctx, wire.OpCheckpoint, wire.EncodeHandle(m.handle))
	cn.release(p)
	return err
}

// Stats is StatsCtx best effort, for the kv.Store face: zero counters when
// the server is unreachable.
func (m *Model) Stats() stats.Counters {
	s, _ := m.StatsCtx(context.Background())
	return s
}

// StatsCtx fetches the server's counters for the model with one STATS
// round trip.
func (m *Model) StatsCtx(ctx context.Context) (stats.Counters, error) {
	cn, err := m.c.pick()
	if err != nil {
		return stats.Counters{}, err
	}
	p, err := cn.roundTripCtx(ctx, wire.OpStats, wire.EncodeHandle(m.handle))
	if err != nil {
		return stats.Counters{}, err
	}
	s, err := stats.Decode(p)
	cn.release(p)
	return s, err
}

// NewSession returns a session bound to one pooled connection, announced
// to the server with an ATTACH frame. Like every kv.Session it is
// single-goroutine; sessions sharing a connection pipeline.
func (m *Model) NewSession() (kv.Session, error) {
	return m.NewSessionCtx(context.Background())
}

// NewSessionCtx is NewSession bounded by ctx.
func (m *Model) NewSessionCtx(ctx context.Context) (*Session, error) {
	cn, err := m.c.pick()
	if err != nil {
		return nil, fmt.Errorf("client: attach to model %q: %w", m.id, err)
	}
	if _, err := cn.roundTripCtx(ctx, wire.OpAttach, wire.EncodeHandle(m.handle)); err != nil {
		return nil, fmt.Errorf("client: attach to model %q: %w", m.id, err)
	}
	return &Session{m: m, cn: cn, slot: cn.idx, vs: m.dim * 4}, nil
}

// Session is one worker's remote handle onto a model.
type Session struct {
	m  *Model
	cn *conn
	// slot is the pool position the session rides: when its connection dies
	// and the slot heals with a fresh one, checkout follows the slot and
	// re-attaches there instead of failing every later request.
	slot   int
	vs     int
	closed bool
	// enc is the session's reusable request-encode scratch. A session is
	// single-goroutine and a round trip returns only after its frame is
	// written, so reuse across requests is safe and the steady-state
	// request path allocates nothing.
	enc []byte
	// resp is the channel the session's round trips receive on, reused from
	// one to the next: a session has at most one request in flight.
	// nil until first use and after a round trip spent it (see roundTripOn).
	resp chan response
	// one and oneFound hold a single-key op's batch of one.
	one      [1]uint64
	oneFound [1]bool
	// rmw is RMW's staging value.
	rmw []byte
}

// roundTrip sends s.enc as op on the session's connection and waits for the
// response on the session's own channel.
func (s *Session) roundTrip(ctx context.Context, op wire.Op) ([]byte, error) {
	if s.resp == nil {
		s.resp = make(chan response, 1)
	}
	p, spent, err := s.cn.roundTripOn(ctx, op, s.enc, s.resp)
	if spent {
		s.resp = nil
	}
	return p, err
}

// checkout returns the session's connection, following the pool slot to a
// fresh one (and re-ATTACHing the model there) if the old connection died.
// The dead connection's server side already released the session's attach
// when it disconnected, so the re-attach keeps accounting truthful.
func (s *Session) checkout(ctx context.Context) (*conn, error) {
	if !s.cn.broken() {
		return s.cn, nil
	}
	cn, err := s.m.c.connAt(s.slot)
	if err != nil {
		return nil, err
	}
	if cn != s.cn {
		p, err := cn.roundTripCtx(ctx, wire.OpAttach, wire.EncodeHandle(s.m.handle))
		if err != nil {
			return nil, fmt.Errorf("client: re-attach to model %q: %w", s.m.id, err)
		}
		cn.release(p)
		s.cn = cn
	}
	return s.cn, nil
}

// Get is a one-key GetBatchCtx.
func (s *Session) Get(key uint64, dst []byte) (bool, error) {
	if len(dst) != s.vs {
		return false, fmt.Errorf("client: dst length %d != value size %d", len(dst), s.vs)
	}
	s.one[0] = key
	err := s.GetBatchCtx(context.Background(), s.one[:], dst, s.oneFound[:])
	return err == nil && s.oneFound[0], err
}

// verdictLead is how far ahead of the caller's deadline a clocked read
// gives up on the server. The server starts the frame's budget when the
// frame arrives, so a budget of the whole remaining time would end after
// the caller's deadline: a read abandoned at that deadline could still take
// a staleness token from a releasing write landing in between, and nobody
// would return it. Giving up a lead early puts the server's verdict back
// before the deadline unless a round trip takes longer than the lead.
const verdictLead = 25 * time.Millisecond

// waitMsFrom converts ctx's remaining budget, less min(a quarter of it,
// verdictLead), to the wire's wait field (0 = no deadline, wait forever).
func waitMsFrom(ctx context.Context) uint32 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	left := time.Until(d)
	ms := (left - min(left/4, verdictLead)).Milliseconds()
	if ms <= 0 {
		return 1
	}
	if ms >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ms)
}

// ctxErr maps a failed read's round trip to what the caller sees. The
// server's "gave up" verdict comes a lead before ctx's deadline (see
// verdictLead); the read still ends at the deadline itself with ctx.Err(),
// as a local one does. Near the deadline the verdict and our own timer
// race; the caller asked for ctx semantics either way.
func ctxErr(ctx context.Context, err error) error {
	if _, ok := ctx.Deadline(); ok && errors.Is(err, context.DeadlineExceeded) {
		<-ctx.Done()
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// Peek is a one-key PeekBatchCtx: a clock-free read on the server, so
// remote evaluation never acquires staleness tokens that would stall
// training reads.
func (s *Session) Peek(key uint64, dst []byte) (bool, error) {
	if len(dst) != s.vs {
		return false, fmt.Errorf("client: dst length %d != value size %d", len(dst), s.vs)
	}
	s.one[0] = key
	err := s.PeekBatchCtx(context.Background(), s.one[:], dst, s.oneFound[:])
	return err == nil && s.oneFound[0], err
}

// Put is a one-key PutBatchCtx.
func (s *Session) Put(key uint64, val []byte) error {
	if len(val) != s.vs {
		return fmt.Errorf("client: val length %d != value size %d", len(val), s.vs)
	}
	s.one[0] = key
	return s.PutBatchCtx(context.Background(), s.one[:], val)
}

func (s *Session) Delete(key uint64) error {
	return s.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete bounded by ctx.
func (s *Session) DeleteCtx(ctx context.Context, key uint64) error {
	if _, err := s.checkout(ctx); err != nil {
		return err
	}
	s.enc = wire.AppendKey(s.enc[:0], s.m.handle, key)
	p, err := s.roundTrip(ctx, wire.OpDelete)
	s.cn.release(p)
	return err
}

// RMW is the kv.Session face, whose arbitrary closure cannot cross the
// wire: a Get, fn, and a Put — a one-key GETBATCH and a one-key PUTBATCH,
// two round trips and not atomic against other sessions (the clocked
// Get/Put pair still balances its staleness token). Only driver.DialKV's
// harnesses reach it; the gradient step every trainer means travels as one
// APPLY frame through ApplyCtx.
func (s *Session) RMW(key uint64, fn func(cur []byte, exists bool) bool) error {
	s.rmw = util.Grow(s.rmw, s.vs)
	found, err := s.Get(key, s.rmw)
	if err != nil {
		return err
	}
	if !found {
		clear(s.rmw)
	}
	if !fn(s.rmw, found) {
		return nil
	}
	return s.Put(key, s.rmw)
}

// UnackedError reports an APPLY whose frame reached the socket but whose
// response never arrived: the step may or may not have run. A gradient
// step is not idempotent, so nothing below the caller may re-send it — the
// cluster router surfaces it instead of retrying against a refreshed map.
type UnackedError struct{ Err error }

// Error describes the lost response.
func (e *UnackedError) Error() string {
	return "client: APPLY sent but not acknowledged (may or may not have applied): " + e.Err.Error()
}

// Unwrap exposes the transport cause (a dead connection, a context error).
func (e *UnackedError) Unwrap() error { return e.Err }

// ApplyCtx applies val ← val − lr·grad to key in one APPLY round trip: the
// server runs it as a single engine RMW, atomic against every other
// session, never waiting on the staleness bound, and releasing one clock
// token like a Put. found=false means the key was absent and was left
// absent — the server knows no initializer, so first touch is the caller's.
// An error before the frame is written (checkout) or a NOT_OWNER refusal
// proves the step did not run; any later transport failure comes back as
// an *UnackedError.
func (s *Session) ApplyCtx(ctx context.Context, key uint64, lr float32, grad []float32) (found bool, err error) {
	if len(grad)*4 != s.vs {
		return false, fmt.Errorf("client: grad length %d != dim %d", len(grad), s.vs/4)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if _, err := s.checkout(ctx); err != nil {
		return false, err
	}
	s.enc = wire.AppendApply(s.enc[:0], s.m.handle, key, lr, grad)
	p, err := s.roundTrip(ctx, wire.OpApply)
	if err != nil {
		var se *ServerError
		var noe *NotOwnerError
		if errors.As(err, &se) || errors.As(err, &noe) {
			return false, err // answered: the server refused before stepping
		}
		return false, &UnackedError{Err: err}
	}
	found, err = wire.DecodeApplyResp(p)
	s.cn.release(p)
	return found, err
}

// Lookahead asks the server to prefetch keys, returning how many records
// it copied toward memory.
func (s *Session) Lookahead(keys []uint64) (int, error) {
	return s.LookaheadCtx(context.Background(), keys)
}

// LookaheadCtx is Lookahead bounded by ctx.
func (s *Session) LookaheadCtx(ctx context.Context, keys []uint64) (int, error) {
	if _, err := s.checkout(ctx); err != nil {
		return 0, err
	}
	total := 0
	for len(keys) > 0 {
		chunk := keys[:min(len(keys), maxKeysPerFrame)]
		keys = keys[len(chunk):]
		s.enc = wire.AppendKeys(s.enc[:0], s.m.handle, chunk)
		p, err := s.roundTrip(ctx, wire.OpLookahead)
		if err != nil {
			return total, err
		}
		n, err := wire.DecodeUint32(p)
		s.cn.release(p)
		if err != nil {
			return total, err
		}
		total += int(n)
	}
	return total, nil
}

// GetBatch ships one frame per maxKeysPerFrame chunk, each fanned into the
// server's sharded store as a single batched read.
func (s *Session) GetBatch(keys []uint64, vals []byte, found []bool) error {
	return s.GetBatchCtx(context.Background(), keys, vals, found)
}

// GetBatchCtx is GetBatch bounded by ctx end to end: checked per frame on
// the round trip, and carried in each frame, less a lead (see
// waitMsFrom), so a clocked read stalled on the staleness bound gives up
// on the server just before the deadline, stranding no token, and the
// round trip itself returns ctx.Err() if ctx ends first.
func (s *Session) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return s.readBatch(ctx, wire.OpGetBatch, keys, vals, found)
}

// readBatch is GetBatchCtx's and PeekBatchCtx's one loop: one op frame per
// maxKeysPerFrame chunk. Only a GETBATCH frame carries ctx's budget; a peek
// never waits on the bound.
func (s *Session) readBatch(ctx context.Context, op wire.Op, keys []uint64, vals []byte, found []bool) error {
	if _, err := s.checkout(ctx); err != nil {
		return err
	}
	vs := s.vs
	for len(keys) > 0 {
		n := min(len(keys), maxKeysPerFrame)
		if op == wire.OpGetBatch {
			s.enc = wire.AppendGetBatch(s.enc[:0], s.m.handle, waitMsFrom(ctx), keys[:n])
		} else {
			s.enc = wire.AppendKeys(s.enc[:0], s.m.handle, keys[:n])
		}
		p, err := s.roundTrip(ctx, op)
		if err != nil {
			return ctxErr(ctx, err)
		}
		err = wire.DecodeGetBatchResp(p, vs, found[:n], vals[:n*vs])
		s.cn.release(p)
		if err != nil {
			return err
		}
		keys, found, vals = keys[n:], found[n:], vals[n*vs:]
	}
	return nil
}

// PutBatch ships one frame per maxKeysPerFrame chunk.
func (s *Session) PutBatch(keys []uint64, vals []byte) error {
	return s.PutBatchCtx(context.Background(), keys, vals)
}

// PutBatchCtx is PutBatch bounded by ctx, checked per frame.
func (s *Session) PutBatchCtx(ctx context.Context, keys []uint64, vals []byte) error {
	if _, err := s.checkout(ctx); err != nil {
		return err
	}
	vs := s.vs
	for len(keys) > 0 {
		n := min(len(keys), maxKeysPerFrame)
		s.enc = wire.AppendPutBatch(s.enc[:0], s.m.handle, keys[:n], vals[:n*vs])
		p, err := s.roundTrip(ctx, wire.OpPutBatch)
		s.cn.release(p)
		if err != nil {
			return err
		}
		keys, vals = keys[n:], vals[n*vs:]
	}
	return nil
}

// Close releases the session: a DETACH frame tells the server to drop it
// from the model's active-session accounting (best effort — a dead
// connection already released it server-side). The pooled connection
// stays open for other sessions. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.cn.broken() {
		return // the dead connection already released the attach server-side
	}
	p, _ := s.cn.roundTrip(wire.OpDetach, wire.EncodeHandle(s.m.handle))
	s.cn.release(p)
}

// PeekBatchCtx reads a batch with PEEK semantics (see Peek), bounded by
// ctx, checked per frame: clock-free, so it never blocks on a staleness
// bound. The cluster router reads replicas through it — a peek acquires no
// clock tokens, so a lagging replica can answer it without consistency
// cost, and a miss falls back to the primary.
func (s *Session) PeekBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return s.readBatch(ctx, wire.OpPeekBatch, keys, vals, found)
}
