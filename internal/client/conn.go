package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/wire"
)

// conn is one pooled connection with a demultiplexing reader goroutine.
type conn struct {
	c      net.Conn
	idx    int    // position in the owning pool: the slot a session follows on redial
	serial uint64 // the pool's count of connections when this one connected
	bw     *bufio.Writer
	fw     *wire.FrameWriter // over bw; guarded by wmu

	wmu sync.Mutex // serializes frame writes across sessions
	// writers counts round trips between "committed to write" and "frame
	// written": the last one out flushes, so concurrent pipelined requests
	// coalesce into one syscall (the server's flush-on-idle pattern,
	// mirrored client-side).
	writers atomic.Int32

	pmu     sync.Mutex
	pending map[uint32]chan response
	closed  bool
	failure error
	// known holds the models re-OPENed on this connection with the handle
	// they were opened under (see Model.on).
	known map[*Model]bool

	nextID atomic.Uint32
	done   chan struct{}

	// bufs recycles response payload buffers: the read loop copies each
	// frame's payload out of its reusable frame buffer into a pooled one,
	// and the round-trip caller releases it back after parsing. Callers
	// that abandon a round trip simply leak their buffer to the GC. A pool
	// holds pointers, so boxes recycles the *[]byte cells the buffers ride
	// in: release takes an empty cell instead of allocating one per response.
	bufs, boxes sync.Pool
}

// broken reports whether the connection has been poisoned by a failure or
// closed: its slot should be re-checked out, not written to.
func (cn *conn) broken() bool {
	cn.pmu.Lock()
	b := cn.closed || cn.failure != nil
	cn.pmu.Unlock()
	return b
}

// knows reports whether m was re-OPENed on cn with its handle unchanged.
func (cn *conn) knows(m *Model) bool {
	cn.pmu.Lock()
	ok := cn.known[m]
	cn.pmu.Unlock()
	return ok
}

// learn records that cn's server numbers m as m.handle.
func (cn *conn) learn(m *Model) {
	cn.pmu.Lock()
	if cn.known == nil {
		cn.known = make(map[*Model]bool)
	}
	cn.known[m] = true
	cn.pmu.Unlock()
}

// getBuf returns a pooled buffer of length n (allocating if the pooled
// one is too small).
func (cn *conn) getBuf(n int) []byte {
	if v := cn.bufs.Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		cn.boxes.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// release returns a round trip's payload to the pool. Safe on nil and
// zero-capacity slices.
func (cn *conn) release(b []byte) {
	if cap(b) == 0 {
		return
	}
	box, _ := cn.boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:0]
	cn.bufs.Put(box)
}

type response struct {
	op      wire.Op
	payload []byte
}

// dialConn connects one pooled connection and starts its reader. The
// connect ends with ctx or after DialTimeout, whichever comes first.
func dialConn(ctx context.Context, addr string, opts Options) (*conn, error) {
	dial := opts.dial
	if dial == nil {
		dial = new(net.Dialer).DialContext
	}
	ctx, cancel := context.WithTimeout(ctx, opts.DialTimeout)
	nc, err := dial(ctx, "tcp", addr)
	cancel()
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency matters more than segment count
	}
	cn := &conn{
		c:       nc,
		bw:      bufio.NewWriterSize(nc, connBufSize),
		pending: make(map[uint32]chan response),
		done:    make(chan struct{}),
	}
	cn.fw = wire.NewFrameWriter(cn.bw)
	go cn.readLoop(opts.MaxFrame)
	return cn, nil
}

const connBufSize = 64 << 10

// readLoop demultiplexes responses to their waiting round trips until the
// connection dies, then fails everything still pending.
func (cn *conn) readLoop(maxFrame uint32) {
	br := bufio.NewReaderSize(cn.c, connBufSize)
	var err error
	// One reusable frame buffer for the loop; each payload is copied into
	// a pooled buffer before handoff, so neither side of the exchange
	// allocates in steady state.
	var frameBuf []byte
	for {
		var f wire.Frame
		f, frameBuf, err = wire.ReadFrameBuf(br, maxFrame, frameBuf)
		if err != nil {
			break
		}
		cn.pmu.Lock()
		ch, ok := cn.pending[f.CorrID]
		delete(cn.pending, f.CorrID)
		cn.pmu.Unlock()
		if ok {
			var p []byte
			if len(f.Payload) > 0 {
				p = cn.getBuf(len(f.Payload))
				copy(p, f.Payload)
			}
			// Buffered (cap 1): a caller that gave up on ctx is not
			// reading, and the response must not stall the loop.
			ch <- response{op: f.Op, payload: p}
		}
	}
	cn.pmu.Lock()
	if cn.failure == nil {
		cn.failure = fmt.Errorf("client: connection lost: %w", err)
	}
	for id, ch := range cn.pending {
		delete(cn.pending, id)
		close(ch)
	}
	cn.pmu.Unlock()
	close(cn.done)
}

// hello runs the HELLO handshake and returns the server's name, refusing
// a server that speaks another protocol version.
func (cn *conn) hello(ctx context.Context) (string, error) {
	p, err := cn.roundTripCtx(ctx, wire.OpHello, wire.EncodeHello())
	if err != nil {
		return "", err
	}
	v, name, err := wire.DecodeHelloResp(p)
	cn.release(p)
	if err == nil && v != wire.Version {
		err = fmt.Errorf("client: server speaks protocol version %d, want %d (upgrade the older side)", v, wire.Version)
	}
	return name, err
}

// roundTrip sends one request and blocks for its response. Concurrent
// calls pipeline: writes interleave under wmu and the read loop routes
// each response to its caller.
func (cn *conn) roundTrip(op wire.Op, payload []byte) ([]byte, error) {
	return cn.roundTripCtx(context.Background(), op, payload)
}

// roundTripCtx is roundTrip bounded by ctx: if ctx ends first the caller
// gets ctx.Err() and the eventual response is dropped by the read loop.
// The request itself is not retracted — the server will still process it.
//
// A non-empty success payload is a pooled buffer: the caller must hand it
// back with cn.release once parsed (forgetting to merely costs the reuse).
func (cn *conn) roundTripCtx(ctx context.Context, op wire.Op, payload []byte) ([]byte, error) {
	p, _, err := cn.roundTripOn(ctx, op, payload, make(chan response, 1))
	return p, err
}

// roundTripOn is roundTripCtx with the response arriving on the caller's
// channel ch (buffered, cap 1, empty), so a session reuses one channel
// across its round trips. spent reports that ch must not be used again: a
// late response to an abandoned request may still land on it, or the
// connection's death closed it.
func (cn *conn) roundTripOn(ctx context.Context, op wire.Op, payload []byte, ch chan response) (p []byte, spent bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	id := cn.nextID.Add(1)
	cn.pmu.Lock()
	if cn.closed || cn.failure != nil {
		err := cn.failure
		cn.pmu.Unlock()
		if err == nil {
			err = errors.New("client: connection closed")
		}
		return nil, true, err
	}
	cn.pending[id] = ch
	cn.pmu.Unlock()

	if err := cn.send(id, op, payload); err != nil {
		// A failed send races the read loop closing every pending channel.
		cn.pmu.Lock()
		delete(cn.pending, id)
		cn.pmu.Unlock()
		return nil, true, err
	}
	var r response
	var ok bool
	select {
	case r, ok = <-ch:
	case <-ctx.Done():
		// Abandon the round trip. Leave the pending entry for the read
		// loop: the buffered channel absorbs the late response.
		return nil, true, ctx.Err()
	}
	if !ok { // the connection died first and closed ch
		cn.pmu.Lock()
		err := cn.failure
		cn.pmu.Unlock()
		return nil, true, err
	}
	switch r.op {
	case wire.RespOK:
		return r.payload, false, nil
	case wire.RespErr:
		err = respError(string(r.payload))
	case wire.RespNotOwner:
		err = &NotOwnerError{Map: append([]byte(nil), r.payload...)}
	default:
		err = fmt.Errorf("client: unexpected response opcode %s", r.op)
	}
	cn.release(r.payload)
	return nil, false, err
}

// send writes one frame, flushing only when this is the last counted
// writer: N concurrent pipelined requests coalesce into ~1 syscall.
// Correctness of the skipped flush: the writer it yielded to has already
// incremented the counter and will hold wmu after us, so every buffered
// byte is flushed by whichever counted writer leaves last.
func (cn *conn) send(id uint32, op wire.Op, payload []byte) error {
	cn.writers.Add(1)
	cn.wmu.Lock()
	err := cn.fw.Write(id, op, payload)
	if cn.writers.Add(-1) == 0 && err == nil {
		err = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	if err != nil {
		// A failed write or flush leaves the stream framing unknown (and
		// may strand another writer's coalesced bytes); poison the
		// connection so everything pending fails fast instead of waiting
		// on responses that can never arrive.
		cn.fail(err)
	}
	return err
}

// fail marks the connection broken and closes it, which unblocks the
// read loop to fail every pending round trip. First error wins.
func (cn *conn) fail(err error) {
	cn.pmu.Lock()
	if cn.failure == nil {
		cn.failure = fmt.Errorf("client: write failed: %w", err)
	}
	cn.pmu.Unlock()
	cn.c.Close()
}

// ServerError is an application-level refusal: the server processed the
// request and answered RespErr over a healthy connection. Anything else a
// round trip returns is transport trouble (a dead connection, a timeout) —
// callers branch on the distinction with errors.As: the cluster router
// retries and fails over only on transport trouble, a heartbeat counts a
// refusal as proof of life, and the replication stream skips a refused
// record but re-dials on anything else.
type ServerError struct{ Msg string }

// Error returns the server's message verbatim.
func (e *ServerError) Error() string { return e.Msg }

// respError rebuilds a server error. Deadline/cancellation errors — a
// read that gave up server-side at the wait budget this client put on the
// wire — come back as the canonical context errors so errors.Is works
// across the network boundary.
func respError(msg string) error {
	switch {
	case strings.Contains(msg, context.DeadlineExceeded.Error()):
		return fmt.Errorf("client: server gave up: %w", context.DeadlineExceeded)
	case strings.Contains(msg, context.Canceled.Error()):
		return fmt.Errorf("client: server gave up: %w", context.Canceled)
	}
	return &ServerError{Msg: msg}
}

func (cn *conn) close() error {
	cn.pmu.Lock()
	cn.closed = true
	cn.pmu.Unlock()
	err := cn.c.Close()
	<-cn.done // reader has failed all pending and exited
	return err
}
