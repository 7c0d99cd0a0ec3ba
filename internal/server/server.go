// Package server is mlkv's network front-end: a TCP listener speaking the
// internal/wire framed protocol over a registry of named models. Each
// connection is handled by one goroutine and holds, per model it has
// attached, its own store session (the per-worker handle the engine
// expects) — so a remote client maps onto a model exactly like a local
// worker thread, and one connection can drive many models. Batch frames
// fan into the sharded stores as one batched operation. Shutdown drains:
// in-flight requests finish and their responses flush before connections
// close.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// ClusterState is the server's view of its cluster node state, satisfied
// by *cluster.State. It is an interface here (payloads crossing it stay
// encoded) so the server does not import internal/cluster — whose router
// half imports internal/client, which this package's tests drive.
type ClusterState interface {
	// Encoded returns the current map's wire encoding, cached per epoch.
	Encoded() []byte
	// ReadOwned / WriteOwned gate data frames by the key's hash range.
	ReadOwned(key uint64) bool
	WriteOwned(key uint64) bool
	// Replicate streams one committed write to this node's replicas;
	// bound is the staleness bound the model runs, which the replica
	// opens it under.
	Replicate(model string, dim int, bound int64, kind byte, keys []uint64, vals []byte)
	// HandleJoin merges a CLUSTERJOIN node record into the membership and
	// returns the merged map, encoded.
	HandleJoin(payload []byte) ([]byte, error)
	// HandleSync adopts a gossiped CLUSTERSYNC map if newer and returns
	// the node's current map, encoded.
	HandleSync(payload []byte) ([]byte, error)
	// HandlePing absorbs a CLUSTERPING heartbeat and returns this node's
	// own health record, encoded (an error when no detector runs — the
	// resulting RespErr still proves this node alive to the pinger).
	HandlePing(payload []byte) ([]byte, error)
	// HandleLeave absorbs a CLUSTERLEAVE departure announcement; the named
	// node skips the suspicion timeout and is treated as confirmed dead.
	HandleLeave(payload []byte) ([]byte, error)
}

// connBufSize sizes the per-connection read/write buffers: large enough
// that a typical batch frame needs one syscall, small enough that a
// thousand idle connections stay cheap.
const connBufSize = 64 << 10

func newReader(c net.Conn) *bufio.Reader { return bufio.NewReaderSize(c, connBufSize) }
func newWriter(c net.Conn) *bufio.Writer { return bufio.NewWriterSize(c, connBufSize) }

// Config parameterizes a Server.
type Config struct {
	// Registry holds the named models the server serves. Models open
	// lazily on OPEN frames (when the registry has an Opener) or are
	// pre-registered with Registry.Add. The registry's lifecycle belongs
	// to the caller: Shutdown drains connections but does not close it.
	Registry *Registry
	// MaxFrame bounds incoming frame sizes (default wire.DefaultMaxFrame).
	MaxFrame uint32
	// Cluster, when set, makes this server one node of a cluster: data
	// frames are ownership-checked against the node's hash ranges (a miss
	// answers NOT_OWNER with the current map), CLUSTERMAP/CLUSTERJOIN/
	// CLUSTERSYNC are served, committed writes stream to replicas, and
	// REPLWRITE frames are accepted. Nil serves a plain single-node store.
	Cluster ClusterState
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of the server's own counters (per-model counters
// travel separately, over the STATS op).
type Stats struct {
	ConnsAccepted int64
	ConnsActive   int64
	Requests      int64
	BatchKeys     int64 // keys carried by GETBATCH/PEEKBATCH/PUTBATCH frames
	Errors        int64 // requests answered with RespErr
}

// Server serves a model registry over TCP.
type Server struct {
	cfg Config

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	// draining is atomic because every handler checks it per request;
	// conns/ln stay behind mu.
	draining atomic.Bool

	wg sync.WaitGroup // one per live connection

	connsAccepted atomic.Int64
	connsActive   atomic.Int64
	requests      atomic.Int64
	batchKeys     atomic.Int64
	errorsSent    atomic.Int64
}

// New builds a Server; call Serve or ListenAndServe to start it.
func New(cfg Config) *Server {
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown (which returns nil) or a
// listener error.
func (s *Server) Serve(ln net.Listener) error {
	if s.draining.Load() {
		return errors.New("server: already shut down")
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsAccepted.Add(1)
		s.connsActive.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.connsActive.Add(-1)
				s.wg.Done()
			}()
			s.handleConn(c)
		}()
	}
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting, then drains: every connection finishes the
// request it is processing, flushes its responses, and closes. If ctx
// expires first the stragglers are closed forcibly. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	// Nudge handlers out of their blocking reads; requests already being
	// processed are unaffected (deadlines only bound reads).
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsAccepted: s.connsAccepted.Load(),
		ConnsActive:   s.connsActive.Load(),
		Requests:      s.requests.Load(),
		BatchKeys:     s.batchKeys.Load(),
		Errors:        s.errorsSent.Load(),
	}
}

// connModel is one connection's state on one attached model: the engine
// session (driven serially by this connection's handler goroutine), the
// attach refcount, and reusable buffers so steady-state request handling
// does not allocate per frame beyond the frame body.
type connModel struct {
	m       *Model
	sess    kv.Session
	refs    int // client sessions attached through this connection
	vs      int
	keys    []uint64
	found   []bool
	scratch []byte // vs bytes: APPLY's post-image
	resp    []byte // reusable APPLY response payload
	out     []byte // reusable GETBATCH response payload

	// The APPLY frame in hand. applyStep is the RMW callback, bound once at
	// attach so a frame allocates no closure; it reads lr and grad and
	// leaves found and, in scratch, the stepped value.
	grad      []float32 // dim
	lr        float32
	hit       bool
	applyStep func(cur []byte, exists bool) bool
}

// step is APPLY's RMW callback: v ← v − lr·grad on an existing key, whose
// post-image it copies out for the replication stream while the record is
// still held. An absent key declines the store — the server knows no
// initializer, so the client answers found=0 with its first-touch path.
func (cm *connModel) step(cur []byte, exists bool) bool {
	if cm.hit = exists; !exists {
		return false
	}
	tensor.StepBytes(cur, cm.grad, cm.lr)
	copy(cm.scratch, cur)
	return true
}

// connState is one connection's handler state: the models it has touched,
// by handle.
type connState struct {
	models map[uint32]*connModel
}

func (s *Server) handleConn(c net.Conn) {
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // responses are latency-bound, like the client's requests
	}
	st := &connState{models: make(map[uint32]*connModel)}
	defer func() {
		// Connection teardown releases everything it still holds: engine
		// sessions close and the models' remote-session gauges drop by the
		// un-detached attach balance, so a dropped client cannot leak
		// sessions into the drain accounting.
		for _, cm := range st.models {
			if cm.sess != nil {
				cm.sess.Close()
			}
			cm.m.activeSessions.Add(int64(-cm.refs))
		}
	}()
	br := newReader(c)
	bw := newWriter(c)
	defer bw.Flush()
	fw := wire.NewFrameWriter(bw)
	// One frame body buffer per connection: each request is fully handled
	// and its response written before the next ReadFrameBuf reuses it.
	var frameBuf []byte
	for {
		f, fb, err := wire.ReadFrameBuf(br, s.cfg.MaxFrame, frameBuf)
		frameBuf = fb
		if err != nil {
			// io.EOF: client hung up. Deadline errors: Shutdown nudged us.
			// Anything else is a framing violation; either way the
			// connection is done. Responses already written still flush.
			return
		}
		respOp, payload, fatal := s.handle(st, f.Op, f.Payload)
		s.requests.Add(1)
		if respOp == wire.RespErr {
			s.errorsSent.Add(1)
		}
		if err := fw.Write(f.CorrID, respOp, payload); err != nil {
			return
		}
		// Flush when the pipeline drains (no bytes waiting) so pipelined
		// clients get batched writes and single-shot clients get answers.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		if fatal || s.draining.Load() {
			return
		}
	}
}

// attached resolves a data frame's handle to this connection's session
// state, requiring a prior ATTACH so session accounting stays truthful.
func (st *connState) attached(handle uint32) (*connModel, error) {
	cm := st.models[handle]
	if cm == nil || cm.sess == nil {
		return nil, fmt.Errorf("server: model handle %d not attached on this connection", handle)
	}
	return cm, nil
}

// handle services one request frame. fatal marks protocol violations that
// should end the connection after the error response is sent.
func (s *Server) handle(st *connState, op wire.Op, p []byte) (respOp wire.Op, payload []byte, fatal bool) {
	fail := func(err error) (wire.Op, []byte, bool) {
		return wire.RespErr, []byte(err.Error()), false
	}
	reg := s.cfg.Registry
	switch op {
	case wire.OpHello:
		v, err := wire.DecodeHello(p)
		if err != nil {
			return fail(err)
		}
		if v != wire.Version {
			op, pl, _ := fail(fmt.Errorf("server: protocol version %d, want %d (upgrade the older side)", v, wire.Version))
			return op, pl, true
		}
		return wire.RespOK, wire.EncodeHelloResp(reg.Name()), false

	case wire.OpOpen:
		id, dim, shards, bound, err := wire.DecodeOpen(p)
		if err != nil {
			return fail(err)
		}
		m, err := reg.Open(id, dim, shards, bound)
		if err != nil {
			return fail(err)
		}
		return wire.RespOK, wire.EncodeOpenResp(m.handle, m.dim, m.store.Shards(), m.store.StalenessBound(), m.store.Name()), false

	case wire.OpAttach:
		h, rest, err := wire.DecodeHandle(p)
		if err != nil || len(rest) != 0 {
			return fail(fmt.Errorf("%w: ATTACH wants a bare handle", wire.ErrShortPayload))
		}
		m, err := reg.lookup(h)
		if err != nil {
			return fail(err)
		}
		cm := st.models[h]
		if cm == nil {
			cm = &connModel{m: m, vs: m.dim * 4, grad: make([]float32, m.dim)}
			cm.scratch = make([]byte, cm.vs)
			cm.applyStep = cm.step
			st.models[h] = cm
		}
		if cm.sess == nil {
			sess, err := m.store.NewSession()
			if err != nil {
				return fail(err)
			}
			cm.sess = sess
		}
		cm.refs++
		m.activeSessions.Add(1)
		return wire.RespOK, nil, false

	case wire.OpDetach:
		h, rest, err := wire.DecodeHandle(p)
		if err != nil || len(rest) != 0 {
			return fail(fmt.Errorf("%w: DETACH wants a bare handle", wire.ErrShortPayload))
		}
		cm := st.models[h]
		if cm == nil || cm.refs == 0 {
			return fail(fmt.Errorf("server: model handle %d has no attached session to detach", h))
		}
		cm.refs--
		cm.m.activeSessions.Add(-1)
		if cm.refs == 0 && cm.sess != nil {
			cm.sess.Close()
			cm.sess = nil
		}
		return wire.RespOK, nil, false

	case wire.OpCheckpoint:
		h, _, err := wire.DecodeHandle(p)
		if err != nil {
			return fail(err)
		}
		m, err := reg.lookup(h)
		if err != nil {
			return fail(err)
		}
		if err := m.store.Checkpoint(); err != nil {
			return fail(err)
		}
		return wire.RespOK, nil, false

	case wire.OpStats:
		h, _, err := wire.DecodeHandle(p)
		if err != nil {
			return fail(err)
		}
		m, err := reg.lookup(h)
		if err != nil {
			return fail(err)
		}
		return wire.RespOK, m.Stats().Encode(), false

	case wire.OpClusterMap:
		if s.cfg.Cluster == nil {
			// Every client probes with this at bootstrap; "not clustered"
			// is an answer (an empty map), not an error to count.
			return wire.RespOK, nil, false
		}
		return wire.RespOK, s.cfg.Cluster.Encoded(), false

	case wire.OpClusterJoin:
		if s.cfg.Cluster == nil {
			return fail(errors.New("server: not clustered"))
		}
		merged, err := s.cfg.Cluster.HandleJoin(p)
		if err != nil {
			return fail(err)
		}
		return wire.RespOK, merged, false

	case wire.OpClusterPing:
		if s.cfg.Cluster == nil {
			return fail(errors.New("server: not clustered"))
		}
		info, err := s.cfg.Cluster.HandlePing(p)
		if err != nil {
			return fail(err)
		}
		return wire.RespOK, info, false

	case wire.OpClusterLeave:
		if s.cfg.Cluster == nil {
			return fail(errors.New("server: not clustered"))
		}
		if _, err := s.cfg.Cluster.HandleLeave(p); err != nil {
			return fail(err)
		}
		return wire.RespOK, nil, false

	case wire.OpClusterSync:
		if s.cfg.Cluster == nil {
			return fail(errors.New("server: not clustered"))
		}
		// Adoption keeps the newer epoch either way; the response always
		// carries this node's current map, so sync doubles as an exchange.
		cur, err := s.cfg.Cluster.HandleSync(p)
		if err != nil {
			return fail(err)
		}
		return wire.RespOK, cur, false
	}

	// Everything below is a data op: handle-prefixed and session-bound.
	h, rest, err := wire.DecodeHandle(p)
	if err != nil {
		return fail(err)
	}
	cm, err := st.attached(h)
	if err != nil {
		return fail(err)
	}
	switch op {
	case wire.OpDelete:
		key, err := wire.DecodeKey(rest)
		if err != nil {
			return fail(err)
		}
		if !s.mayWrite(key) {
			return s.notOwner()
		}
		// Deletes are write-class traffic: they share the Put histogram.
		start := time.Now()
		err = cm.sess.Delete(key)
		cm.m.lat.Since(latency.OpPut, start)
		if err != nil {
			return fail(err)
		}
		s.replicate(cm, wire.ReplDelete, cm.oneKey(key), nil)
		return wire.RespOK, nil, false

	case wire.OpApply:
		key, lr, err := wire.DecodeApply(rest, cm.grad)
		if err != nil {
			return fail(err)
		}
		if !s.mayWrite(key) {
			return s.notOwner()
		}
		cm.lr = lr
		start := time.Now()
		err = cm.sess.RMW(key, cm.applyStep)
		cm.m.lat.Since(latency.OpRMW, start)
		if err != nil {
			return fail(err)
		}
		if cm.hit {
			// Replicas receive the post-image as an ordinary upsert: they
			// need not replay the arithmetic, and the replicator is unchanged.
			// Like PUTBATCH's, the enqueue follows the engine call rather than
			// sharing its record lock, so two connections stepping one key
			// can enqueue out of order (ARCHITECTURE, replication).
			s.replicate(cm, wire.ReplPut, cm.oneKey(key), cm.scratch)
		}
		cm.resp = wire.AppendApplyResp(cm.resp[:0], cm.hit)
		return wire.RespOK, cm.resp, false

	case wire.OpGetBatch, wire.OpPeekBatch:
		// PEEKBATCH — the cluster router's replica reads and routed peeks —
		// answers in GETBATCH's layout but reads clock-free per key: no
		// staleness tokens, no copy-to-tail, never blocks.
		var keys []uint64
		var waitMs uint32
		if op == wire.OpGetBatch {
			keys, waitMs, err = wire.DecodeGetBatch(rest, cm.keys)
		} else {
			keys, err = wire.DecodeKeys(rest, cm.keys)
		}
		if err != nil {
			return fail(err)
		}
		cm.keys = keys
		if !s.mayReadAll(keys) {
			return s.notOwner()
		}
		n := len(keys)
		s.batchKeys.Add(int64(n))
		cm.m.batchGets.Add(1)
		// Build the response in place: found flags and values land
		// directly in the outgoing payload. The payload buffer is
		// per-connection and reused across frames (the response is flushed
		// before the next frame is read).
		out := util.Grow(cm.out, 4+n+n*cm.vs)
		cm.out = out
		clear(out[4 : 4+n])
		binary.LittleEndian.PutUint32(out, uint32(n))
		vals := out[4+n:]
		cm.found = util.Grow(cm.found, n)
		clear(cm.found)
		start := time.Now()
		if op == wire.OpGetBatch {
			ctx, cancel := waitCtx(waitMs, cm.m.store.StalenessBound())
			err = kv.SessionGetBatchCtx(ctx, cm.sess, cm.vs, keys, vals, cm.found)
			cancel()
		} else {
			for i := 0; i < n && err == nil; i++ {
				cm.found[i], err = cm.sess.Peek(keys[i], vals[i*cm.vs:(i+1)*cm.vs])
			}
		}
		cm.m.lat.Since(latency.OpGetBatch, start)
		if err != nil {
			return fail(err)
		}
		for i, f := range cm.found {
			if f {
				out[4+i] = 1
			} else {
				clear(vals[i*cm.vs : (i+1)*cm.vs]) // no bytes of an earlier frame
			}
		}
		return wire.RespOK, out, false

	case wire.OpPutBatch:
		keys, vals, err := wire.DecodePutBatch(rest, cm.vs, cm.keys)
		if err != nil {
			return fail(err)
		}
		cm.keys = keys
		if !s.mayWriteAll(keys) {
			return s.notOwner()
		}
		s.batchKeys.Add(int64(len(keys)))
		cm.m.batchPuts.Add(1)
		start := time.Now()
		err = kv.SessionPutBatch(cm.sess, cm.vs, keys, vals)
		cm.m.lat.Since(latency.OpPutBatch, start)
		if err != nil {
			return fail(err)
		}
		s.replicate(cm, wire.ReplPut, keys, vals)
		return wire.RespOK, nil, false

	case wire.OpLookahead:
		keys, err := wire.DecodeKeys(rest, cm.keys)
		if err != nil {
			return fail(err)
		}
		cm.keys = keys
		if !s.mayReadAll(keys) {
			return s.notOwner()
		}
		cm.m.lookaheadFrames.Add(1)
		copied, err := cm.sess.Lookahead(keys)
		if err != nil {
			return fail(err)
		}
		return wire.RespOK, wire.EncodeUint32(uint32(copied)), false

	case wire.OpReplWrite:
		// The replication stream from this range's primary. Bypasses the
		// ownership check — a replica rejects client writes but must accept
		// these — and never re-replicates (replicas have no replicas).
		if s.cfg.Cluster == nil {
			return fail(errors.New("server: not clustered"))
		}
		seq, head, kind, keys, vals, err := wire.DecodeReplWrite(rest, cm.vs, cm.keys[:0])
		if err != nil {
			return fail(err)
		}
		cm.keys = keys
		start := time.Now()
		if kind == wire.ReplPut {
			err = kv.SessionPutBatch(cm.sess, cm.vs, keys, vals)
			cm.m.lat.Since(latency.OpPutBatch, start)
		} else {
			for _, k := range keys {
				if err = cm.sess.Delete(k); err != nil {
					break
				}
			}
			cm.m.lat.Since(latency.OpPut, start)
		}
		if err != nil {
			return fail(err)
		}
		// Advance the contiguous-application cursor: the replica
		// advertises head − highest-contiguous-seq as the lag a router
		// checks for SSP admissibility, so a sequence gap (lost records)
		// keeps the advertised lag pinned instead of draining to zero.
		cm.m.applyReplSeq(seq, head)
		return wire.RespOK, nil, false
	}
	return fail(fmt.Errorf("server: unknown opcode %d", uint8(op)))
}

// notOwner answers a mis-routed data frame: the client's map is stale (or
// it guessed a seed), so the response carries this node's current map for
// the router to adopt before retrying.
func (s *Server) notOwner() (wire.Op, []byte, bool) {
	return wire.RespNotOwner, s.cfg.Cluster.Encoded(), false
}

// mayReadAll reports whether this node serves reads for every key:
// primaries for their ranges, replicas for their primary's. A
// non-clustered server owns everything.
func (s *Server) mayReadAll(keys []uint64) bool {
	if s.cfg.Cluster == nil {
		return true
	}
	for _, k := range keys {
		if !s.cfg.Cluster.ReadOwned(k) {
			return false
		}
	}
	return true
}

// mayWrite reports whether this node accepts client writes for key: only
// the owning primary (replicas take writes solely over REPLWRITE).
func (s *Server) mayWrite(key uint64) bool {
	return s.cfg.Cluster == nil || s.cfg.Cluster.WriteOwned(key)
}

func (s *Server) mayWriteAll(keys []uint64) bool {
	if s.cfg.Cluster == nil {
		return true
	}
	for _, k := range keys {
		if !s.cfg.Cluster.WriteOwned(k) {
			return false
		}
	}
	return true
}

// replicate streams a committed client write to this node's replicas
// (async — the event is copied and queued, never on this request's path).
func (s *Server) replicate(cm *connModel, kind byte, keys []uint64, vals []byte) {
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Replicate(cm.m.id, cm.m.dim, cm.m.store.StalenessBound(), kind, keys, vals)
	}
}

// oneKey stages a single-key write's key for replicate in the connection's
// reusable key slice (Replicate copies the event before returning).
func (cm *connModel) oneKey(key uint64) []uint64 {
	cm.keys = append(cm.keys[:0], key)
	return cm.keys
}

// waitCtx turns a frame's wait budget into a context: a clocked read
// stalled on the staleness bound gives up server-side at the client's
// deadline instead of stranding a token on an abandoned request (and
// wedging this connection's handler). Under a bound that cannot block
// there is nothing to give up on, so the read runs without a timer. bound
// is the model's, fixed while it is open.
func waitCtx(waitMs uint32, bound int64) (context.Context, context.CancelFunc) {
	if waitMs == 0 || !faster.BlockingBound(bound) {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(waitMs)*time.Millisecond)
}
