package client

// Tests for the pool's round trip: a session healing onto a redialed
// connection, a round trip abandoned on its context (the late response
// must not answer the next request, and an unanswered one must not hang
// Close), what an APPLY error says about whether the step ran, frame
// chunking, and coalesced frame flushing (many pipelined writers, ~one
// syscall). The lifecycle tests run against a scripted in-test wire server
// so response timing is controlled exactly; chunking and coalescing run
// against the real server, the latter through a write-counting net.Conn.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// fakeServer speaks just enough of the wire protocol to open a model and
// answer reads, with per-opcode scripted behavior: an added delay, a
// forced RespErr, or a muted (never answered) op. Each request is handled
// on its own goroutine so a delayed or muted request does not block the
// ones pipelined behind it on the same connection.
type fakeServer struct {
	ln  net.Listener
	dim int

	mu    sync.Mutex
	delay map[wire.Op]time.Duration
	errOn map[wire.Op]string
	muted map[wire.Op]bool
	// openDim, when non-zero, is the dim every OPEN answers with.
	openDim int

	// attaches counts ATTACH frames served — the reconnect test asserts a
	// healed connection re-attaches its session exactly once.
	attaches atomic.Int64
}

func newFakeServer(t *testing.T, dim int) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeServer{
		ln: ln, dim: dim,
		delay: map[wire.Op]time.Duration{},
		errOn: map[wire.Op]string{},
		muted: map[wire.Op]bool{},
	}
	go s.accept()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *fakeServer) setDelay(op wire.Op, d time.Duration) {
	s.mu.Lock()
	s.delay[op] = d
	s.mu.Unlock()
}

func (s *fakeServer) setErr(op wire.Op, msg string) {
	s.mu.Lock()
	s.errOn[op] = msg
	s.mu.Unlock()
}

func (s *fakeServer) mute(op wire.Op) {
	s.mu.Lock()
	s.muted[op] = true
	s.mu.Unlock()
}

func (s *fakeServer) accept() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(c)
	}
}

func (s *fakeServer) serve(c net.Conn) {
	defer c.Close()
	var wmu sync.Mutex // handler goroutines interleave responses
	fw := wire.NewFrameWriter(c)
	for {
		f, _, err := wire.ReadFrameBuf(c, 0, nil) // fresh payload per frame; goroutine-safe
		if err != nil {
			return
		}
		go s.handle(fw, &wmu, f)
	}
}

func (s *fakeServer) handle(fw *wire.FrameWriter, wmu *sync.Mutex, f wire.Frame) {
	s.mu.Lock()
	d, muted, errMsg, openDim := s.delay[f.Op], s.muted[f.Op], s.errOn[f.Op], s.openDim
	s.mu.Unlock()
	if muted {
		return
	}
	if d > 0 {
		time.Sleep(d)
	}
	op := wire.RespOK
	var resp []byte
	if errMsg != "" {
		op, resp = wire.RespErr, []byte(errMsg)
	} else {
		switch f.Op {
		case wire.OpHello:
			resp = wire.EncodeHelloResp("fake")
		case wire.OpOpen:
			_, dim, _, bound, err := wire.DecodeOpen(f.Payload)
			if err != nil {
				op, resp = wire.RespErr, []byte(err.Error())
				break
			}
			if bound == wire.BoundUnset {
				bound = faster.BoundAsync
			}
			if openDim != 0 {
				dim = openDim
			}
			resp = wire.EncodeOpenResp(1, dim, 1, bound, "fake")
		case wire.OpAttach:
			s.attaches.Add(1)
		case wire.OpDetach:
		case wire.OpGetBatch:
			_, rest, _ := wire.DecodeHandle(f.Payload)
			keys, _, _ := wire.DecodeGetBatch(rest, nil)
			resp = fakeBatchResp(s.dim, keys)
		case wire.OpApply:
			resp = wire.AppendApplyResp(nil, true)
		default:
			op, resp = wire.RespErr, []byte("fake: unhandled op")
		}
	}
	wmu.Lock()
	fw.Write(f.CorrID, op, resp)
	wmu.Unlock()
}

// fakeVal is the deterministic value the fake serves for a key: every
// byte is byte(key), so winners' payloads are checkable.
func fakeVal(dim int, key uint64) []byte {
	v := make([]byte, dim*4)
	for i := range v {
		v[i] = byte(key)
	}
	return v
}

func fakeBatchResp(dim int, keys []uint64) []byte {
	vs := dim * 4
	found := make([]bool, len(keys))
	vals := make([]byte, len(keys)*vs)
	for i, k := range keys {
		found[i] = true
		for j := 0; j < vs; j++ {
			vals[i*vs+j] = byte(k)
		}
	}
	return wire.EncodeGetBatchResp(found, vals)
}

func fakeClient(t *testing.T, s *fakeServer, opts Options) *Client {
	t.Helper()
	cl, err := Dial(context.Background(), s.ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func fakeSession(t *testing.T, cl *Client, id string, dim int, bound int64) (*Model, *Session) {
	t.Helper()
	m, err := cl.OpenModel(context.Background(), OpenSpec{ID: id, Dim: dim, Bound: bound})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSessionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return m, s
}

func pendingTotal(cl *Client) int {
	n := 0
	for i := range cl.slots {
		cn := cl.slots[i].cn.Load()
		cn.pmu.Lock()
		n += len(cn.pending)
		cn.pmu.Unlock()
	}
	return n
}

// waitDrained waits for every in-flight correlation entry across the pool
// to be consumed — the no-leak invariant for abandoned round trips.
func waitDrained(t *testing.T, cl *Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pendingTotal(cl) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pending entries never drained", pendingTotal(cl))
		}
		time.Sleep(time.Millisecond)
	}
}

func checkBatchVals(t *testing.T, keys []uint64, vals []byte, found []bool, vs int) {
	t.Helper()
	for i, k := range keys {
		if !found[i] {
			t.Fatalf("key %d not found", k)
		}
		for j := 0; j < vs; j++ {
			if vals[i*vs+j] != byte(k) {
				t.Fatalf("key %d byte %d = %d, want %d", k, j, vals[i*vs+j], byte(k))
			}
		}
	}
}

// TestSessionRecoversFromDeadConnection is the reconnect regression test:
// a session whose connection dies mid-life must heal transparently on its
// next operation — the pool slot redials (HELLO) and the session
// re-ATTACHes on the fresh connection — instead of failing every later
// request the way a session pinned to the dead *conn would.
func TestSessionRecoversFromDeadConnection(t *testing.T) {
	const dim = 2
	fs := newFakeServer(t, dim)
	cl := fakeClient(t, fs, Options{Conns: 1})
	_, s := fakeSession(t, cl, "m", dim, wire.BoundUnset)

	ctx := context.Background()
	dst, found1 := make([]byte, dim*4), make([]bool, 1)
	if err := s.GetBatchCtx(ctx, []uint64{1}, dst, found1); err != nil {
		t.Fatal(err)
	}
	attachesBefore := fs.attaches.Load()

	// Kill the transport out from under the session and wait for the read
	// loop to notice: the conn is now poisoned, not merely idle.
	old := cl.slots[0].cn.Load()
	old.c.Close()
	<-old.done
	if !old.broken() {
		t.Fatal("closed connection not marked broken")
	}

	// The next read must succeed via redial + re-attach, not error.
	if err := s.GetBatchCtx(ctx, []uint64{2}, dst, found1); err != nil {
		t.Fatalf("read after connection death: %v", err)
	}
	for j := range dst {
		if dst[j] != 2 {
			t.Fatalf("healed read byte %d = %d, want %d", j, dst[j], 2)
		}
	}
	if cl.slots[0].cn.Load() == old {
		t.Fatal("dead connection still occupies its pool slot")
	}
	if got := fs.attaches.Load(); got != attachesBefore+1 {
		t.Fatalf("server saw %d attaches, want %d (one re-ATTACH on the healed connection)",
			got, attachesBefore+1)
	}

	// Steady state on the healed connection: further ops reuse it without
	// another attach round trip.
	keys := []uint64{5, 6}
	vals := make([]byte, len(keys)*dim*4)
	found := make([]bool, len(keys))
	if err := s.GetBatchCtx(ctx, keys, vals, found); err != nil {
		t.Fatal(err)
	}
	checkBatchVals(t, keys, vals, found, dim*4)
	if got := fs.attaches.Load(); got != attachesBefore+1 {
		t.Fatalf("healed session attached again: %d attaches", got)
	}
}

// countingConn counts Write calls on the underlying connection — with a
// bufio layer above it, exactly the flush syscalls. Each Write also
// sleeps ~a millisecond, modeling a network where the syscall is not
// free: while one flusher sleeps, the other writers pile up behind the
// frame lock, which is exactly the contention coalescing exists for (and
// it makes the test deterministic on a single-CPU runner, where zero-cost
// writes let every round trip finish before the next goroutine starts).
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	time.Sleep(time.Millisecond)
	return c.Conn.Write(p)
}

// startRealServer serves a lazily-opening registry (clock-free hybrid log,
// one shard) on loopback for the tests that need the real server behind
// the pool, and returns its address.
func startRealServer(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	reg := server.NewRegistry(server.RegistryConfig{
		Store: kv.ShardedConfig{
			Dir: dir, RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
			StalenessBound: -1,
		},
		Name: "client-test",
	})
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
		reg.Close()
	})
	return ln.Addr().String()
}

// TestCoalescedClientWrites pins the tentpole write-path property against
// the real server: 64 concurrent pipelined requests on one connection
// coalesce their flushes — the connection sees far fewer Write calls than
// requests, instead of one flush per request.
func TestCoalescedClientWrites(t *testing.T) {
	const dim = 4
	const requests = 64
	addr := startRealServer(t)

	var writes atomic.Int64
	cl, err := Dial(context.Background(), addr, Options{
		Conns: 1,
		dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			nc, err := new(net.Dialer).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: nc, writes: &writes}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m, err := cl.OpenModel(context.Background(), OpenSpec{ID: "coalesce", Dim: dim, Bound: wire.BoundUnset})
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, requests)
	for i := range sessions {
		if sessions[i], err = m.NewSessionCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	before := writes.Load()
	startCh := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, requests)
	val := make([]byte, dim*4)
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-startCh
			errCh <- sessions[i].PutBatchCtx(context.Background(), []uint64{uint64(i)}, val)
		}(i)
	}
	close(startCh)
	wg.Wait()
	burst := writes.Load() - before
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sessions {
		s.Close()
	}

	t.Logf("%d pipelined puts cost %d conn writes", requests, burst)
	if burst < 1 {
		t.Fatal("no connection writes counted; the counting conn is not wired")
	}
	// The contended window guarantees coalescing: while one writer holds
	// the frame lock, every queued writer has already announced itself, so
	// all but the last skip their flush. Half the request count is a loose
	// ceiling; in practice the burst costs a handful of writes.
	if burst >= requests/2 {
		t.Fatalf("%d pipelined puts cost %d conn writes; want them coalesced well below %d",
			requests, burst, requests/2)
	}
}

// TestBatchesSplitAtMaxKeysPerFrame pins the chunking MaxKeysPerFrame
// governs: a batch one key past a frame's worth and then some crosses the
// wire as two frames — counted server-side — and still round-trips whole.
func TestBatchesSplitAtMaxKeysPerFrame(t *testing.T) {
	const dim, n = 2, 5000
	if n <= MaxKeysPerFrame || n > 2*MaxKeysPerFrame {
		t.Fatalf("%d keys no longer split into exactly two frames of %d", n, MaxKeysPerFrame)
	}
	cl, err := Dial(context.Background(), startRealServer(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	m, err := cl.OpenModel(ctx, OpenSpec{ID: "chunks", Dim: dim, Bound: wire.BoundUnset})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSessionCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys, vals := make([]uint64, n), make([]byte, 0, n*dim*4)
	for i := range keys {
		keys[i] = uint64(i) * 7
		vals = append(vals, fakeVal(dim, keys[i])...)
	}
	if err := s.PutBatchCtx(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}
	got, found := make([]byte, len(vals)), make([]bool, n)
	if err := s.GetBatchCtx(ctx, keys, got, found); err != nil {
		t.Fatal(err)
	}
	checkBatchVals(t, keys, got, found, dim*4)
	if _, err := s.LookaheadCtx(ctx, keys); err != nil {
		t.Fatal(err)
	}
	st, err := m.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchPuts != 2 || st.BatchGets != 2 || st.LookaheadCalls != 2 {
		t.Fatalf("server saw %d PUTBATCH, %d GETBATCH, %d LOOKAHEAD frames for %d keys, want 2 each",
			st.BatchPuts, st.BatchGets, st.LookaheadCalls, n)
	}
}

// TestSessionResponseChannelReplacedAfterAbandon pins the reuse rule of the
// per-session response channel: round trips that complete share one
// channel, and a round trip abandoned on ctx gives its channel up — the
// late response lands on the old one, so the next request, already waiting
// when it arrives, still gets its own answer. A batch read the server never
// answers ends at the deadline too, and its pending entry does not hang
// Close.
func TestSessionResponseChannelReplacedAfterAbandon(t *testing.T) {
	const dim = 4
	fs := newFakeServer(t, dim)
	cl := fakeClient(t, fs, Options{Conns: 1})
	_, s := fakeSession(t, cl, "reuse", dim, faster.BoundAsync)
	dst, found := make([]byte, dim*4), make([]bool, 1)
	get := func(ctx context.Context, key uint64) error {
		err := s.GetBatchCtx(ctx, []uint64{key}, dst, found)
		if err == nil && (!found[0] || !bytes.Equal(dst, fakeVal(dim, key))) {
			t.Fatalf("get %d answered found=%v %v: another request's response", key, found[0], dst)
		}
		return err
	}
	if err := get(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	first := s.resp
	if err := get(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if first == nil || s.resp != first {
		t.Fatal("completed round trips did not reuse the session's response channel")
	}

	fs.setDelay(wire.OpGetBatch, 150*time.Millisecond)
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := get(short, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned get returned %v, want the deadline", err)
	}
	if s.resp == first {
		t.Fatal("an abandoned round trip kept its channel: the late response would answer the next request")
	}
	// Key 3's response arrives ~120ms into this wait; it must not be taken
	// for key 4's.
	if err := get(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, cl)

	fs.mute(wire.OpGetBatch)
	short, cancel = context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.GetBatchCtx(short, []uint64{5}, dst, found); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unanswered batch read returned %v, want the deadline", err)
	}
	if n := pendingTotal(cl); n != 1 {
		t.Fatalf("%d pending entries after the abandoned batch read, want 1", n)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if n := pendingTotal(cl); n != 0 {
		t.Fatalf("Close left %d pending entries", n)
	}
}

// TestClockedReadGivesUpBeforeDeadline pins how a deadline-carrying read
// ends. Its frame asks the server to give up a lead before the caller's
// deadline, so the server's verdict comes back before a read abandoned at
// that deadline could take a staleness token nobody returns. The call
// still ends at the deadline itself with ctx.Err(), as a local read does:
// after an early "gave up" verdict, and when no answer comes at all.
func TestClockedReadGivesUpBeforeDeadline(t *testing.T) {
	if w := waitMsFrom(context.Background()); w != 0 {
		t.Fatalf("no deadline sent wait %d ms, want 0 (wait forever)", w)
	}
	for _, c := range []struct{ left, lo, hi time.Duration }{
		{time.Minute, time.Minute - 2*verdictLead, time.Minute - verdictLead},
		{40 * time.Millisecond, 25 * time.Millisecond, 30 * time.Millisecond},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), c.left)
		w := time.Duration(waitMsFrom(ctx)) * time.Millisecond
		cancel()
		if w < c.lo || w > c.hi {
			t.Fatalf("%v left sent wait %v, want within [%v, %v]", c.left, w, c.lo, c.hi)
		}
	}

	const dim = 4
	fs := newFakeServer(t, dim)
	cl := fakeClient(t, fs, Options{Conns: 1})
	_, s := fakeSession(t, cl, "verdict", dim, 0) // BSP
	dst := make([]byte, dim*4)
	gaveUp := "kv: " + context.DeadlineExceeded.Error()
	fs.setErr(wire.OpGetBatch, gaveUp)
	check := func(what string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
		defer cancel()
		d, _ := ctx.Deadline()
		err := s.GetBatchCtx(ctx, []uint64{2}, dst, make([]bool, 1))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s returned %v, want DeadlineExceeded", what, err)
		}
		if now := time.Now(); now.Before(d) || now.After(d.Add(time.Second)) {
			t.Fatalf("%s returned %v from its deadline, want at it", what, now.Sub(d))
		}
	}
	check("batch after an early verdict")
	fs.mute(wire.OpGetBatch)
	check("unanswered batch")
}

// TestApplyErrorsSaySentOrNot pins what an APPLY error tells the caller: a
// server refusal answered over a healthy connection passes through (the
// step did not run), while a connection that dies after the frame was
// written comes back as *UnackedError (it may have).
func TestApplyErrorsSaySentOrNot(t *testing.T) {
	const dim = 4
	fs := newFakeServer(t, dim)
	cl := fakeClient(t, fs, Options{Conns: 1})
	_, s := fakeSession(t, cl, "apply", dim, faster.BoundAsync)
	grad := make([]float32, dim)
	ctx := context.Background()
	if found, err := s.ApplyCtx(ctx, 1, 0.5, grad); err != nil || !found {
		t.Fatalf("apply: found=%v err=%v", found, err)
	}

	fs.setErr(wire.OpApply, "engine says no")
	var se *ServerError
	var ue *UnackedError
	if _, err := s.ApplyCtx(ctx, 1, 0.5, grad); !errors.As(err, &se) || errors.As(err, &ue) {
		t.Fatalf("a server refusal came back as %v, want a bare *ServerError", err)
	}

	fs.setErr(wire.OpApply, "")
	fs.mute(wire.OpApply)
	errc := make(chan error, 1)
	go func() {
		_, err := s.ApplyCtx(ctx, 1, 0.5, grad)
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); pendingTotal(cl) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the APPLY never went out")
		}
		time.Sleep(time.Millisecond)
	}
	cl.slots[0].cn.Load().c.Close() // the frame is on the wire; its response never comes
	if err := <-errc; !errors.As(err, &ue) {
		t.Fatalf("a connection lost after the send came back as %v, want *UnackedError", err)
	}
}

// TestOpenDimMismatchIsARefusal: a server that answers OPEN with another
// dim than asked has answered over a healthy connection, so the caller
// sees a *ServerError — a refusal a replication stream counts and skips,
// and a router does not retry as a dead host.
func TestOpenDimMismatchIsARefusal(t *testing.T) {
	s := newFakeServer(t, 8)
	s.mu.Lock()
	s.openDim = 8
	s.mu.Unlock()
	cl := fakeClient(t, s, Options{Conns: 1})
	_, err := cl.OpenModel(context.Background(), OpenSpec{ID: "m", Dim: 4, Bound: wire.BoundUnset})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("OPEN answered with dim 8 for dim 4: %v (%T), want a *ServerError", err, err)
	}
}
