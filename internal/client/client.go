// Package client is the remote face of an mlkv-server: a connection pool
// speaking the internal/wire protocol, from which callers open any number
// of named models — the network half of the paper's
// Open(model_id, dim, staleness_bound) interface. A Model's sessions speak
// byte-level batch frames with a context on every call. It is the one wire
// client: the remote driver (internal/driver) and the cluster router reach
// servers through it, and so does every node-to-node call in
// internal/cluster — joins, map gossip, heartbeats, leaves and the
// replication stream. Everything else reaches a server through the public
// API.
//
// Sessions are assigned to pooled connections round-robin and announce
// themselves to the server with an ATTACH frame (and a DETACH on Close),
// so the server's per-model session accounting tracks remote workers
// truthfully. Every connection has a reader goroutine that demultiplexes
// responses by correlation ID, so sessions sharing a connection pipeline
// their requests: the second request is on the wire before the first
// response returns. Batch operations travel as single frames and fan into
// the server's sharded store as one batched call — the unit that
// amortizes the network round trip. A session has no single-key read or
// put: no server serves such a frame, so one key travels as a batch of one.
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

	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// MaxKeysPerFrame splits larger batches into multiple frames; it must stay
// within wire.MaxBatchKeys.
const MaxKeysPerFrame = 4096

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

	// dial overrides net.Dialer.DialContext for tests.
	dial func(ctx context.Context, network, addr string) (net.Conn, error)
}

// Client is a connection pool onto one mlkv-server. Models are opened
// from it with OpenModel; the Client itself carries no store state.
type Client struct {
	opts Options
	addr string
	// slots never change length after Dial. A pooled connection that died
	// is replaced on its slot's next checkout, so one mid-pipeline failure
	// costs the requests in flight, not every later request on the slot.
	slots      []poolSlot
	next       atomic.Uint64
	serverName string
	// closing is cancelled by Close, ending every redial in flight.
	closing  context.Context
	closeNow context.CancelFunc

	// mu guards slot replacement, each slot's dialing and the redial
	// breaker; it is never held across I/O. One slot's dial failure is
	// evidence about every slot (they dial one address), so consecutive
	// failures open a shared jittered-backoff window in which redials fail
	// fast on the cached error instead of connecting to a dead host.
	mu          sync.Mutex
	dialFails   int       // consecutive failed redials
	dialNext    time.Time // no redial before this instant
	lastDialErr error     // what the breaker fast-fails with

	dialRetries  atomic.Int64 // redial attempts actually made
	dialBackoffs atomic.Int64 // redials refused by the breaker window

	// dialed numbers connections in the order they connect (conn.serial).
	dialed atomic.Uint64
}

// poolSlot is one pool position: cn loads without a lock, and dialing is
// non-nil while the slot's one redial runs and closed when it ends.
type poolSlot struct {
	cn      atomic.Pointer[conn]
	dialing chan struct{}
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

// Dial connects the pool, each connection through the same redial a dead
// slot uses: a connect plus a HELLO handshake, each bounded by DialTimeout
// and by ctx, failing fast on a protocol-version mismatch. ctx bounds the
// dial only, not the pool's life.
func Dial(ctx context.Context, addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	if opts.MaxFrame == 0 {
		opts.MaxFrame = wire.DefaultMaxFrame
	}
	if opts.DialTimeout == 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	c := &Client{opts: opts, addr: addr, slots: make([]poolSlot, opts.Conns)}
	c.closing, c.closeNow = context.WithCancel(context.Background())
	for i := range c.slots {
		cn, name, err := c.redial(ctx)
		if err != nil {
			c.slots = c.slots[:i]
			c.Close()
			return nil, err
		}
		cn.idx = i
		c.slots[i].cn.Store(cn)
		c.serverName = name
	}
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

// Call sends one frame on a pooled connection and returns a copy of the
// answer's payload: the node-to-node calls (CLUSTERMAP, CLUSTERJOIN,
// CLUSTERSYNC, CLUSTERPING, CLUSTERLEAVE) need no model. A RespErr answer
// is a *ServerError.
func (c *Client) Call(ctx context.Context, op wire.Op, payload []byte) ([]byte, error) {
	cn, err := c.pick(ctx)
	if err != nil {
		return nil, err
	}
	p, err := cn.roundTripCtx(ctx, op, payload)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), p...)
	cn.release(p)
	return out, nil
}

// Close tears down every pooled connection and ends any redial in flight;
// outstanding requests and all models opened from this client fail
// afterwards.
func (c *Client) Close() error {
	c.mu.Lock() // a redial ending now sees closing done, or stores first
	c.closeNow()
	c.mu.Unlock()
	var first error
	for i := range c.slots {
		if err := c.slots[i].cn.Load().close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// connAt returns the healthy connection at slot, replacing a dead one: a
// connection poisoned mid-pipeline fails only the requests that were in
// flight on it, and the slot heals on its next checkout. One checkout
// redials; the slot's others wait for it or for their own ctx.
func (c *Client) connAt(ctx context.Context, slot int) (*conn, error) {
	sl := &c.slots[slot]
	for {
		if cn := sl.cn.Load(); !cn.broken() {
			return cn, nil
		}
		c.mu.Lock()
		wait := sl.dialing
		switch {
		case c.closing.Err() != nil:
			c.mu.Unlock()
			return nil, errors.New("client: closed")
		case !sl.cn.Load().broken(): // a redial landed since the load above
			c.mu.Unlock()
			continue
		case wait != nil:
			c.mu.Unlock()
			select {
			case <-wait:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case time.Now().Before(c.dialNext):
			// Inside an open backoff window the checkout fails fast, so
			// thousands of checkouts do not each connect to a dead host. The
			// cached error is quoted, not wrapped: it may carry the
			// deadline of another caller.
			err := c.lastDialErr
			c.mu.Unlock()
			c.dialBackoffs.Add(1)
			return nil, fmt.Errorf("client: redial %s: backing off: %v", c.addr, err)
		}
		sl.dialing = make(chan struct{})
		c.mu.Unlock()
		return c.redialSlot(ctx, sl, slot)
	}
}

// redialSlot runs slot's one redial, whose dialing channel the caller set,
// and installs the fresh connection unless Close ran meanwhile.
func (c *Client) redialSlot(ctx context.Context, sl *poolSlot, slot int) (*conn, error) {
	c.dialRetries.Add(1)
	fresh, _, err := c.redial(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	close(sl.dialing)
	sl.dialing = nil
	switch {
	case err == nil:
		c.dialFails, c.dialNext, c.lastDialErr = 0, time.Time{}, nil
		if c.closing.Err() != nil {
			fresh.c.Close() // its reader exits on its own
			return nil, errors.New("client: closed")
		}
		fresh.idx = slot
		sl.cn.Store(fresh)
		return fresh, nil
	case !errors.Is(ctx.Err(), context.Canceled):
		// A cancelled caller (Model.Close) proves nothing about the host,
		// but an expired deadline does: a host that outlasts a caller's
		// deadline would otherwise be redialled by every checkout. The
		// window opens when the failure is known, so a slow failure does
		// not find its own window already past.
		c.dialFails++
		c.dialNext = time.Now().Add(util.Backoff(c.dialFails, dialBackoffMin, dialBackoffMax))
		c.lastDialErr = err
	}
	return nil, err
}

// redial dials and handshakes one connection, returning it and the
// server's name. The connect and the HELLO are each bounded by
// DialTimeout, by ctx and by Close: a blackholed host accepts the connect
// and then says nothing, and an unbounded handshake there would hang the
// dial forever.
func (c *Client) redial(caller context.Context) (*conn, string, error) {
	ctx, cancel := context.WithCancel(caller)
	defer cancel()
	defer context.AfterFunc(c.closing, cancel)()
	fresh, err := dialConn(ctx, c.addr, c.opts)
	if err != nil {
		return nil, "", c.redialErr(caller, "", err)
	}
	fresh.serial = c.dialed.Add(1)
	ctx, cancelHello := context.WithTimeout(ctx, c.opts.DialTimeout)
	name, err := fresh.hello(ctx)
	cancelHello()
	if err != nil {
		fresh.close()
		return nil, "", c.redialErr(caller, "handshake: ", err)
	}
	return fresh, name, nil
}

// redialErr words a failed dial step. A DialTimeout that runs out while
// the caller's ctx is still live is the host's failure, not the caller's
// deadline: it is quoted, not wrapped, so errors.Is(err,
// context.DeadlineExceeded) stays false and a cluster router treats the
// host as down (retry, fail over) instead of parking the caller until its
// own deadline.
func (c *Client) redialErr(caller context.Context, step string, err error) error {
	if caller.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("client: dial %s: %sno answer within %v: %v", c.addr, step, c.opts.DialTimeout, err)
	}
	return fmt.Errorf("client: dial %s: %s%w", c.addr, step, err)
}

// pick returns the next pooled connection round-robin, healing dead slots.
func (c *Client) pick(ctx context.Context) (*conn, error) {
	return c.connAt(ctx, int(c.next.Add(1)%uint64(len(c.slots))))
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
	cn, err := c.pick(ctx)
	if err != nil {
		return nil, fmt.Errorf("client: open model %q: %w", spec.ID, err)
	}
	openedAt := c.dialed.Load() // connections dialed later are checked by Model.on
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
		// The server answered, over a healthy connection, with a model
		// this caller cannot use: a refusal, not transport trouble.
		return nil, &ServerError{Msg: fmt.Sprintf("client: model %q: server dim %d != requested %d", spec.ID, dim, spec.Dim)}
	}
	return &Model{c: c, open: req, openedAt: openedAt, handle: handle, id: spec.ID, dim: dim, shards: shards, bound: bound, name: name}, nil
}

// HandleMovedError reports a model whose server, reached again after its
// connection died, numbers it with another handle: the server restarted
// and opened its models in another order. A frame carrying the old handle
// would reach whichever model holds it now, so none is sent; open the
// model afresh.
type HandleMovedError struct {
	Model    string
	Was, Now uint32
}

// Error names the model and both handles.
func (e *HandleMovedError) Error() string {
	return fmt.Sprintf("client: model %q was handle %d but the server now gives it handle %d (server restarted): reopen the model", e.Model, e.Was, e.Now)
}

// Model is one named model on the server, every method delegating to the
// server.
type Model struct {
	c    *Client
	open []byte // the OPEN payload OpenModel sent, re-sent by on
	// openedAt is the Client.dialed count when the model was opened: every
	// connection numbered up to it reached the server that issued handle,
	// or a server already gone, where no frame lands.
	openedAt uint64
	handle   uint32
	id       string
	dim      int
	shards   int
	bound    int64  // the staleness bound the server reported at open
	name     string // the server store's Name
}

// on makes sure cn reaches a server that numbers the model m.handle
// before a frame carrying the handle goes out on it. A connection dialed
// after the model was opened may reach a restarted server, whose
// registry numbers models in its own open order; there the model is
// re-OPENed as OpenModel opened it, once per connection. A different answer is a
// *HandleMovedError. Connections the model was opened over cost nothing.
func (m *Model) on(ctx context.Context, cn *conn) error {
	if cn.serial <= m.openedAt || cn.knows(m) {
		return nil
	}
	p, err := cn.roundTripCtx(ctx, wire.OpOpen, m.open)
	if err != nil {
		return fmt.Errorf("client: reopen model %q: %w", m.id, err)
	}
	handle, _, _, _, _, err := wire.DecodeOpenResp(p)
	cn.release(p)
	if err != nil {
		return fmt.Errorf("client: reopen model %q: %w", m.id, err)
	}
	if handle != m.handle {
		return &HandleMovedError{Model: m.id, Was: m.handle, Now: handle}
	}
	cn.learn(m)
	return nil
}

// pick returns a pooled connection on which m's handle is good.
func (m *Model) pick(ctx context.Context) (*conn, error) {
	cn, err := m.c.pick(ctx)
	if err != nil {
		return nil, err
	}
	if err := m.on(ctx, cn); err != nil {
		return nil, err
	}
	return cn, nil
}

// ID returns the model name.
func (m *Model) ID() string { return m.id }

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.dim }

// Shards returns the server store's hash-partition count.
func (m *Model) Shards() int { return m.shards }

// StalenessBound returns the bound the server runs the model under, fixed
// while it is open.
func (m *Model) StalenessBound() int64 { return m.bound }

// Name identifies the remote store in benchmark output.
func (m *Model) Name() string { return "remote(" + m.name + ")" }

// CheckpointCtx asks the server to make the model durable.
func (m *Model) CheckpointCtx(ctx context.Context) error {
	cn, err := m.pick(ctx)
	if err != nil {
		return err
	}
	p, err := cn.roundTripCtx(ctx, wire.OpCheckpoint, wire.EncodeHandle(m.handle))
	cn.release(p)
	return err
}

// StatsCtx fetches the server's counters for the model with one STATS
// round trip.
func (m *Model) StatsCtx(ctx context.Context) (stats.Counters, error) {
	cn, err := m.pick(ctx)
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

// NewSessionCtx returns a session bound to one pooled connection,
// announced to the server with an ATTACH frame. A session is
// single-goroutine; sessions sharing a connection pipeline.
func (m *Model) NewSessionCtx(ctx context.Context) (*Session, error) {
	cn, err := m.pick(ctx)
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
// when it disconnected, so the re-attach keeps accounting truthful. The
// fresh connection may reach a restarted server, so the handle is checked
// there first (Model.on).
func (s *Session) checkout(ctx context.Context) (*conn, error) {
	if !s.cn.broken() {
		return s.cn, nil
	}
	cn, err := s.m.c.connAt(ctx, s.slot)
	if err != nil {
		return nil, err
	}
	if cn != s.cn {
		if err := s.m.on(ctx, cn); err != nil {
			return nil, err
		}
		p, err := cn.roundTripCtx(ctx, wire.OpAttach, wire.EncodeHandle(s.m.handle))
		if err != nil {
			return nil, fmt.Errorf("client: re-attach to model %q: %w", s.m.id, err)
		}
		cn.release(p)
		s.cn = cn
	}
	return s.cn, nil
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

// DeleteCtx removes key on the server.
func (s *Session) DeleteCtx(ctx context.Context, key uint64) error {
	if _, err := s.checkout(ctx); err != nil {
		return err
	}
	s.enc = wire.AppendKey(s.enc[:0], s.m.handle, key)
	p, err := s.roundTrip(ctx, wire.OpDelete)
	s.cn.release(p)
	return err
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

// LookaheadCtx asks the server to prefetch keys, one frame per
// MaxKeysPerFrame chunk, returning how many records it copied toward
// memory.
func (s *Session) LookaheadCtx(ctx context.Context, keys []uint64) (int, error) {
	if _, err := s.checkout(ctx); err != nil {
		return 0, err
	}
	total := 0
	for len(keys) > 0 {
		chunk := keys[:min(len(keys), MaxKeysPerFrame)]
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

// GetBatchCtx ships one frame per MaxKeysPerFrame chunk, each fanned into
// the server's sharded store as a single batched read. It is bounded by
// ctx end to end: checked per frame on the round trip, and carried in each
// frame, less a lead (see waitMsFrom), so a clocked read stalled on the
// staleness bound gives up on the server just before the deadline,
// stranding no token, and the round trip itself returns ctx.Err() if ctx
// ends first.
func (s *Session) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return s.readBatch(ctx, wire.OpGetBatch, keys, vals, found)
}

// readBatch is GetBatchCtx's and PeekBatchCtx's one loop: one op frame per
// MaxKeysPerFrame chunk. Only a GETBATCH frame carries ctx's budget; a peek
// never waits on the bound.
func (s *Session) readBatch(ctx context.Context, op wire.Op, keys []uint64, vals []byte, found []bool) error {
	vs := s.vs
	if len(vals) != len(keys)*vs || len(found) != len(keys) {
		return fmt.Errorf("client: %d keys need %d value bytes and %d found flags, got %d and %d",
			len(keys), len(keys)*vs, len(keys), len(vals), len(found))
	}
	if _, err := s.checkout(ctx); err != nil {
		return err
	}
	for len(keys) > 0 {
		n := min(len(keys), MaxKeysPerFrame)
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

// PutBatchCtx ships one frame per MaxKeysPerFrame chunk, bounded by ctx,
// checked per frame.
func (s *Session) PutBatchCtx(ctx context.Context, keys []uint64, vals []byte) error {
	vs := s.vs
	if len(vals) != len(keys)*vs {
		return fmt.Errorf("client: vals length %d != %d keys × value size %d", len(vals), len(keys), vs)
	}
	if _, err := s.checkout(ctx); err != nil {
		return err
	}
	for len(keys) > 0 {
		n := min(len(keys), MaxKeysPerFrame)
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

// ReplWriteCtx sends one replication record (REPLWRITE) on the session's
// connection. Unlike every other session call it does not heal a dead
// connection: a re-ATTACH after a redial would send a handle the replica,
// if it restarted meanwhile, never issued or issued for another model.
// The replication stream re-opens its models on a fresh pool instead.
func (s *Session) ReplWriteCtx(ctx context.Context, seq, head uint64, kind byte, keys []uint64, vals []byte) error {
	s.enc = wire.AppendReplWrite(s.enc[:0], s.m.handle, seq, head, kind, keys, vals)
	p, err := s.roundTrip(ctx, wire.OpReplWrite)
	s.cn.release(p)
	return err
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

// PeekBatchCtx reads a batch with PEEK semantics, bounded by ctx, checked
// per frame: a clock-free read on the server, so it never blocks on a
// staleness bound and remote evaluation never acquires tokens that would
// stall training reads. The cluster router reads replicas through it — a
// peek acquires no clock tokens, so a lagging replica can answer it
// without consistency cost, and a miss falls back to the primary.
func (s *Session) PeekBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return s.readBatch(ctx, wire.OpPeekBatch, keys, vals, found)
}
