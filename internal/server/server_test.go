package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// startServer builds a registry that lazily opens 4-shard stores under
// dir and serves it on loopback, returning the dial address and a
// shutdown func.
func startServer(t *testing.T, dir string) (string, *Server, func()) {
	t.Helper()
	return serveAt(t, "127.0.0.1:0", dir)
}

// serveAt is startServer on a given listen address, so a test can restart
// a server where its clients will redial.
func serveAt(t *testing.T, addr, dir string) (string, *Server, func()) {
	t.Helper()
	reg := NewRegistry(RegistryConfig{
		Store: kv.ShardedConfig{
			Dir: dir, Shards: 4, RecordsPerPage: 64, MemoryBytes: 1 << 20,
			ExpectedKeys: 1 << 12, StalenessBound: -1,
		},
		Name: "mlkv-test",
	})
	srv := New(Config{Registry: reg})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		reg.Close()
	}
	return ln.Addr().String(), srv, stop
}

// openModel opens a model on the test server with the given dimension.
func openModel(t *testing.T, cl *client.Client, id string, dim int) *client.Model {
	t.Helper()
	m, err := cl.OpenModel(context.Background(), client.OpenSpec{ID: id, Dim: dim, Bound: wire.BoundUnset})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// get1, peek1 and put1 send one key as a batch of one: a session has no
// single-key read or put, as no server serves such a frame.
func get1(s *client.Session, key uint64, dst []byte) (bool, error) {
	found := make([]bool, 1)
	err := s.GetBatchCtx(context.Background(), []uint64{key}, dst, found)
	return found[0], err
}

func peek1(s *client.Session, key uint64, dst []byte) (bool, error) {
	found := make([]bool, 1)
	err := s.PeekBatchCtx(context.Background(), []uint64{key}, dst, found)
	return found[0], err
}

func put1(s *client.Session, key uint64, val []byte) error {
	return s.PutBatchCtx(context.Background(), []uint64{key}, val)
}

// TestRemoteRoundTrip drives the whole single-key surface through a real
// TCP connection: handshake, open, put, get, delete, prefetch, value-size
// guard.
func TestRemoteRoundTrip(t *testing.T) {
	const dim = 8
	const vs = dim * 4
	addr, _, stop := startServer(t, t.TempDir())
	defer stop()

	cl, err := client.Dial(context.Background(), addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.ServerName() != "mlkv-test" {
		t.Fatalf("ServerName = %q", cl.ServerName())
	}

	m := openModel(t, cl, "roundtrip", dim)
	if m.Dim()*4 != vs {
		t.Fatalf("value size = %d, want %d", m.Dim()*4, vs)
	}
	if m.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", m.Shards())
	}
	if !strings.Contains(m.Name(), kv.HybridLogName(-1)) { // the registry names the store by its bound
		t.Fatalf("Name = %q", m.Name())
	}

	ctx := context.Background()
	s, err := m.NewSessionCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte{0xab}, vs)
	dst := make([]byte, vs)
	if found, _ := get1(s, 1, dst); found {
		t.Fatal("fresh store has key 1")
	}
	if err := put1(s, 1, val); err != nil {
		t.Fatal(err)
	}
	if found, err := get1(s, 1, dst); err != nil || !found || !bytes.Equal(dst, val) {
		t.Fatalf("get after put: found=%v err=%v", found, err)
	}
	if err := s.DeleteCtx(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if found, _ := get1(s, 1, dst); found {
		t.Fatal("key survived delete")
	}
	if _, err := s.LookaheadCtx(ctx, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := put1(s, 2, val[:3]); err == nil {
		t.Fatal("short value accepted")
	}
}

// TestRedialChecksTheHandle restarts the server under live sessions. A
// restarted registry numbers models in its own open order, so the handle
// the sessions attached with may now name another model. The redial
// re-OPENs the model by name before anything carries the handle: when the
// restarted server opened it first again, the sessions heal (all at once,
// on the one redialed connection); when another model took its handle,
// every write fails with a *client.HandleMovedError and the other model
// never sees it. Model-level calls on the redialed connection get the
// same check.
func TestRedialChecksTheHandle(t *testing.T) {
	const dim, sessions = 2, 4
	ctx := context.Background()
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, first := range []string{"a", "b"} {
		t.Run(first+"-first", func(t *testing.T) {
			dir := t.TempDir()
			addr, _, stop := startServer(t, dir)
			cl, err := client.Dial(ctx, addr, client.Options{Conns: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			m := openModel(t, cl, "a", dim)
			ss := make([]*client.Session, sessions)
			for i := range ss {
				if ss[i], err = m.NewSessionCtx(ctx); err != nil {
					t.Fatal(err)
				}
				defer ss[i].Close()
			}
			if err := put1(ss[0], 100, val); err != nil {
				t.Fatal(err)
			}
			stop()

			_, _, stop2 := serveAt(t, addr, dir)
			defer stop2()
			cl2, err := client.Dial(ctx, addr, client.Options{Conns: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer cl2.Close()
			peer, err := openModel(t, cl2, first, dim).NewSessionCtx(ctx) // takes handle 1
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()

			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for i, s := range ss {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = put1(s, uint64(i), val)
				}()
			}
			wg.Wait()
			var moved *client.HandleMovedError
			got := make([]byte, len(val))
			for i, err := range errs {
				found, perr := peek1(peer, uint64(i), got)
				if perr != nil {
					t.Fatal(perr)
				}
				switch {
				case first == "a" && err != nil:
					t.Fatalf("session %d: put after a restart that kept the handle: %v", i, err)
				case first == "a" && (!found || !bytes.Equal(got, val)):
					t.Fatalf("session %d: healed put not in model a: found=%v %v", i, found, got)
				case first == "b" && (!errors.As(err, &moved) || moved.Model != "a" || moved.Was != 1 || moved.Now != 2):
					t.Fatalf("session %d: put after the handle moved: err = %v, want a HandleMovedError for a, 1 -> 2", i, err)
				case first == "b" && found:
					t.Fatalf(`session %d: model "b" holds the key written to "a"`, i)
				}
			}
			_, serr := m.StatsCtx(ctx)
			cerr := m.CheckpointCtx(ctx)
			if first == "a" {
				if serr != nil || cerr != nil {
					t.Fatalf("stats and checkpoint after the heal: %v, %v", serr, cerr)
				}
				return
			}
			if !errors.As(serr, &moved) || !errors.As(cerr, &moved) {
				t.Fatalf("stats and checkpoint after the handle moved: %v, %v, want HandleMovedErrors", serr, cerr)
			}
		})
	}
}

// TestRemoteApply drives the APPLY frame end to end: an existing key
// steps by exactly lr·grad and answers found, an absent key is left absent
// and answers not-found, the step releases a clock token like a Put and
// never waits on the bound (BSP here), and the server times it into the
// model's RMW class.
func TestRemoteApply(t *testing.T) {
	const dim = 4
	addr, _, stop := startServer(t, t.TempDir())
	defer stop()
	cl, err := client.Dial(context.Background(), addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m, err := cl.OpenModel(context.Background(), client.OpenSpec{ID: "apply", Dim: dim, Bound: 0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSessionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	val, got := make([]byte, dim*4), make([]byte, dim*4)
	tensor.F32sToBytes([]float32{10, 20, 30, 40}, val)
	if err := put1(s, 1, val); err != nil {
		t.Fatal(err)
	}
	if found, err := get1(s, 1, got); err != nil || !found { // takes the record's one BSP token
		t.Fatalf("get: found=%v err=%v", found, err)
	}

	grad := []float32{1, 2, 3, 4}
	if found, err := s.ApplyCtx(ctx, 1, 0.5, grad); err != nil || !found {
		t.Fatalf("apply on an existing key: found=%v err=%v", found, err)
	}
	// The step released the token: a BSP read proceeds instead of stalling.
	short, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	found := make([]bool, 1)
	if err := s.GetBatchCtx(short, []uint64{1}, got, found); err != nil || !found[0] {
		t.Fatalf("clocked read after the step: found=%v err=%v", found, err)
	}
	f := make([]float32, dim)
	tensor.BytesToF32s(got, f)
	if want := []float32{9.5, 19, 28.5, 38}; !reflect.DeepEqual(f, want) {
		t.Fatalf("stepped value %v, want %v", f, want)
	}

	if found, err := s.ApplyCtx(ctx, 2, 0.5, grad); err != nil || found {
		t.Fatalf("apply on an absent key: found=%v err=%v, want not found", found, err)
	}
	if found, _ := peek1(s, 2, got); found {
		t.Fatal("apply created the absent key: the server knows no initializer")
	}
	if _, err := s.ApplyCtx(ctx, 1, 0.5, grad[:3]); err == nil {
		t.Fatal("a gradient of the wrong dimension was accepted")
	}

	st, err := m.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RMWs != 2 || st.LatRMW.Count != 2 {
		t.Fatalf("server-side RMWs=%d LatRMW.Count=%d, want 2 and 2 (one per APPLY frame)", st.RMWs, st.LatRMW.Count)
	}
}

// TestMultiModel serves two models with different dimensions over one
// connection pool: keys are independent, value sizes differ, and the
// registry deduplicates by name while refusing a dim mismatch. Every model
// opens from the registry's store template: its files under Store.Dir/<id>,
// an OPEN naming no shard count or bound taking the template's, one naming
// them keeping its own, and a registry with no Store.Dir opening none.
func TestMultiModel(t *testing.T) {
	dir := t.TempDir()
	addr, srv, stop := startServer(t, dir)
	defer stop()
	cl, err := client.Dial(context.Background(), addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	a := openModel(t, cl, "model-a", 8)
	b := openModel(t, cl, "model-b", 4)
	if a.Dim() == b.Dim() {
		t.Fatal("models share a value size; want distinct dims")
	}
	for _, id := range []string{"model-a", "model-b"} {
		if _, err := os.Stat(filepath.Join(dir, id, "ENGINE")); err != nil {
			t.Fatalf("model %q not under Store.Dir/<id>: %v", id, err)
		}
	}
	if b.Shards() != 4 || b.StalenessBound() != -1 {
		t.Fatalf("OPEN with no shards or bound: shards=%d bound=%d, want the template's 4 and -1", b.Shards(), b.StalenessBound())
	}
	c, err := cl.OpenModel(context.Background(), client.OpenSpec{ID: "model-c", Dim: 4, Shards: 2, Bound: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 2 || c.StalenessBound() != 8 {
		t.Fatalf("OPEN with 2 shards and bound 8: shards=%d bound=%d", c.Shards(), c.StalenessBound())
	}
	if _, opened, err := srv.cfg.Registry.Open("model-a", 8, 0, wire.BoundUnset); err != nil || opened {
		t.Fatalf("reopening a live model: opened=%v err=%v, want it found, not opened", opened, err)
	}
	if _, _, err := NewRegistry(RegistryConfig{}).Open("orphan", 8, 0, wire.BoundUnset); err == nil || !strings.Contains(err.Error(), `"orphan"`) {
		t.Fatalf("registry with no Store.Dir: err=%v, want a refusal naming the model", err)
	}

	sa, err := a.NewSessionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := b.NewSessionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	va := bytes.Repeat([]byte{1}, a.Dim()*4)
	vb := bytes.Repeat([]byte{2}, b.Dim()*4)
	if err := put1(sa, 7, va); err != nil {
		t.Fatal(err)
	}
	if err := put1(sb, 7, vb); err != nil {
		t.Fatal(err)
	}
	da := make([]byte, a.Dim()*4)
	db := make([]byte, b.Dim()*4)
	if found, err := get1(sa, 7, da); err != nil || !found || !bytes.Equal(da, va) {
		t.Fatalf("model-a key 7: found=%v err=%v val=%v", found, err, da)
	}
	if found, err := get1(sb, 7, db); err != nil || !found || !bytes.Equal(db, vb) {
		t.Fatalf("model-b key 7: found=%v err=%v val=%v", found, err, db)
	}

	// Same name, same dim: deduplicated. Same name, other dim: refused.
	if again := openModel(t, cl, "model-a", 8); again.Dim() != a.Dim() {
		t.Fatal("reopen returned a different model")
	}
	if _, err := cl.OpenModel(context.Background(), client.OpenSpec{ID: "model-a", Dim: 16, Bound: wire.BoundUnset}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	// Unsafe ids are refused before they touch the filesystem.
	for _, id := range []string{"", "../escape", "a/b", ".hidden", "white space"} {
		if _, err := cl.OpenModel(context.Background(), client.OpenSpec{ID: id, Dim: 8, Bound: wire.BoundUnset}); err == nil {
			t.Fatalf("unsafe model id %q accepted", id)
		}
	}
}

// TestSessionAccounting pins the attach/detach protocol: the server's
// per-model session gauge follows client sessions, and a connection torn
// down without detaching releases its balance.
func TestSessionAccounting(t *testing.T) {
	addr, srv, stop := startServer(t, t.TempDir())
	defer stop()
	cl, err := client.Dial(context.Background(), addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := openModel(t, cl, "sessions", 4)

	reg := srv.cfg.Registry
	model := reg.Models()[0]
	if n := model.Stats().ActiveSessions; n != 0 {
		t.Fatalf("fresh model has %d sessions", n)
	}
	s1, err := m.NewSessionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.NewSessionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := model.Stats().ActiveSessions; n != 2 {
		t.Fatalf("ActiveSessions = %d after two attaches, want 2", n)
	}
	s1.Close()
	s1.Close() // idempotent: must not double-detach
	if n := model.Stats().ActiveSessions; n != 1 {
		t.Fatalf("ActiveSessions = %d after detach, want 1", n)
	}
	_ = s2 // left attached: the connection teardown must release it
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for model.Stats().ActiveSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveSessions = %d after connection close, want 0", model.Stats().ActiveSessions)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteBatchConcurrent runs many sessions over a small pool (forcing
// pipelining) doing disjoint batched writes and reads, then checks the
// server's view of the data and its batch counters.
func TestRemoteBatchConcurrent(t *testing.T) {
	const dim, workers, batch, rounds = 4, 8, 256, 5
	const vs = dim * 4
	addr, srv, stop := startServer(t, t.TempDir())
	defer stop()

	cl, err := client.Dial(context.Background(), addr, client.Options{Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := openModel(t, cl, "batch", dim)

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			s, err := m.NewSessionCtx(ctx)
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			keys := make([]uint64, batch)
			vals := make([]byte, batch*vs)
			for i := range keys {
				keys[i] = uint64(w*batch + i)
				vals[i*vs] = byte(w + 1)
				vals[i*vs+1] = byte(i)
			}
			got := make([]byte, batch*vs)
			found := make([]bool, batch)
			for r := 0; r < rounds; r++ {
				if err := s.PutBatchCtx(ctx, keys, vals); err != nil {
					errCh <- err
					return
				}
				if err := s.GetBatchCtx(ctx, keys, got, found); err != nil {
					errCh <- err
					return
				}
				for i := range keys {
					if !found[i] {
						errCh <- fmt.Errorf("worker %d round %d: key %d missing", w, r, keys[i])
						return
					}
				}
				if !bytes.Equal(got, vals) {
					errCh <- fmt.Errorf("worker %d round %d: batch values differ", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	wantKeys := int64(workers * batch * rounds * 2)
	if st.BatchKeys != wantKeys {
		t.Fatalf("BatchKeys = %d, want %d", st.BatchKeys, wantKeys)
	}
	if st.Errors != 0 {
		t.Fatalf("server answered %d errors", st.Errors)
	}
	ms, err := m.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := int64(workers * rounds)
	if ms.BatchGets != wantFrames || ms.BatchPuts != wantFrames {
		t.Fatalf("model batch frames = %d/%d, want %d/%d", ms.BatchGets, ms.BatchPuts, wantFrames, wantFrames)
	}
}

// TestRemoteStatsAndCheckpoint exercises the STATS and CHECKPOINT ops:
// counters reflect remote traffic and a checkpoint lands metadata in
// every shard directory of the model.
func TestRemoteStatsAndCheckpoint(t *testing.T) {
	const dim = 2
	const vs = dim * 4
	dir := t.TempDir()
	addr, _, stop := startServer(t, dir)
	defer stop()

	cl, err := client.Dial(context.Background(), addr, client.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := openModel(t, cl, "ckpt", dim)
	ctx := context.Background()
	s, err := m.NewSessionCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, vs)
	for k := uint64(0); k < 100; k++ {
		if err := put1(s, k, val); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, vs)
	for k := uint64(0); k < 100; k++ {
		if _, err := get1(s, k, dst); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.StatsCtx(ctx)
	if err != nil || snap.Puts < 100 || snap.Gets < 100 {
		t.Fatalf("remote stats missed traffic: %+v err=%v", snap, err)
	}
	if err := m.CheckpointCtx(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p := filepath.Join(dir, "ckpt", "shard-00"+string(rune('0'+i)), "CHECKPOINT")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("shard %d checkpoint missing: %v", i, err)
		}
	}
}

// TestGracefulShutdownDrains verifies in-flight pipelined requests get
// their responses before connections close, and that the server refuses
// new work afterward.
func TestGracefulShutdownDrains(t *testing.T) {
	const dim = 4
	addr, srv, stop := startServer(t, t.TempDir())
	defer stop() // Shutdown is idempotent; this releases the registry
	cl, err := client.Dial(context.Background(), addr, client.Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := openModel(t, cl, "drain", dim)
	s, err := m.NewSessionCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, dim*4)
	// Lay down traffic so the drain has something in flight, then shut
	// down concurrently with a writer.
	done := make(chan error, 1)
	go func() {
		var err error
		for k := uint64(0); k < 2000; k++ {
			if err = put1(s, k, val); err != nil {
				break
			}
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The writer either finished cleanly or observed the connection close
	// once the drain completed — but it must return, not hang on a
	// swallowed response. (<-done doubles as the hang check: the test
	// binary would time out.)
	<-done
	if _, err := client.Dial(context.Background(), addr, client.Options{Conns: 1}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestProtocolErrorPaths talks raw frames to the server: bad opcodes,
// oversized batches, and unattached handles must answer RespErr without
// killing the connection; so must the single-key GET, PEEK and PUT frames,
// which no server serves since v7. A version mismatch (an old client's
// HELLO) must answer RespErr with a clear message and then close it.
func TestProtocolErrorPaths(t *testing.T) {
	addr, _, stop := startServer(t, t.TempDir())
	defer stop()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fw := wire.NewFrameWriter(nc)

	// Unknown opcode → RespErr, connection lives.
	if err := fw.Write(1, wire.Op(99), wire.EncodeHandle(1)); err != nil {
		t.Fatal(err)
	}
	f, _, err := wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespErr || f.CorrID != 1 {
		t.Fatalf("unknown op: %+v err=%v", f, err)
	}

	// Open a real model so data frames have a live handle.
	if err := fw.Write(2, wire.OpOpen, wire.EncodeOpen("raw", 2, 0, wire.BoundUnset)); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespOK {
		t.Fatalf("open: %+v err=%v", f, err)
	}
	handle, _, _, _, _, err := wire.DecodeOpenResp(f.Payload)
	if err != nil {
		t.Fatal(err)
	}

	// A data frame before ATTACH → RespErr, connection lives.
	if err := fw.Write(3, wire.OpGetBatch, wire.AppendGetBatch(nil, handle, 0, []uint64{7})); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespErr || !strings.Contains(string(f.Payload), "not attached") {
		t.Fatalf("unattached get: %+v err=%v", f, err)
	}

	// ATTACH, then exercise the error paths on a live session.
	if err := fw.Write(4, wire.OpAttach, wire.EncodeHandle(handle)); err != nil {
		t.Fatal(err)
	}
	if f, _, err = wire.ReadFrameBuf(nc, 0, nil); err != nil || f.Op != wire.RespOK {
		t.Fatalf("attach: %+v err=%v", f, err)
	}

	// Oversized batch count → RespErr, connection lives.
	huge := append(wire.EncodeHandle(handle), 0xff, 0xff, 0xff, 0x00)
	if err := fw.Write(5, wire.OpGetBatch, huge); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespErr || f.CorrID != 5 {
		t.Fatalf("oversized batch: %+v err=%v", f, err)
	}

	// Mis-sized PUTBATCH (one key, 3 value bytes, dim 2) → RespErr,
	// connection lives.
	if err := fw.Write(6, wire.OpPutBatch, wire.AppendPutBatch(nil, handle, []uint64{7}, []byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespErr || f.CorrID != 6 || strings.Contains(string(f.Payload), "unknown opcode") {
		t.Fatalf("short put: %+v err=%v", f, err)
	}

	// The single-key frames no server serves since v7 → RespErr "unknown
	// opcode" on a live session, connection lives.
	for i, fr := range []struct {
		op wire.Op
		p  []byte
	}{
		{wire.OpGet, wire.AppendGet(nil, handle, 7, 0)},
		{wire.OpPeek, wire.AppendKey(nil, handle, 7)},
		{wire.OpPut, wire.AppendPut(nil, handle, 7, make([]byte, 8))},
	} {
		corr := uint32(20 + i)
		if err := fw.Write(corr, fr.op, fr.p); err != nil {
			t.Fatal(err)
		}
		f, _, err = wire.ReadFrameBuf(nc, 0, nil)
		if err != nil || f.Op != wire.RespErr || f.CorrID != corr || !strings.Contains(string(f.Payload), "unknown opcode") {
			t.Fatalf("single-key op %d: %+v err=%v", fr.op, f, err)
		}
	}

	// APPLY with a gradient of the wrong dimension (3 floats, dim 2) →
	// RespErr, connection lives, and nothing was stepped.
	if err := fw.Write(10, wire.OpApply, wire.AppendApply(nil, handle, 7, 1, []float32{1, 1, 1})); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespErr || f.CorrID != 10 {
		t.Fatalf("mis-sized apply: %+v err=%v", f, err)
	}

	// Unknown handle → RespErr, connection lives.
	if err := fw.Write(7, wire.OpGetBatch, wire.AppendGetBatch(nil, 99, 0, []uint64{7})); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespErr {
		t.Fatalf("unknown handle: %+v err=%v", f, err)
	}

	// The connection still works.
	if err := fw.Write(8, wire.OpGetBatch, wire.AppendGetBatch(nil, handle, 0, []uint64{7})); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	if err != nil || f.Op != wire.RespOK {
		t.Fatalf("get after errors: %+v err=%v", f, err)
	}

	// The previous protocol's HELLO → a clear RespErr, then close: there is
	// no compat path.
	old := wire.EncodeHello()
	old[0] = wire.Version - 1
	if err := fw.Write(9, wire.OpHello, old); err != nil {
		t.Fatal(err)
	}
	f, _, err = wire.ReadFrameBuf(nc, 0, nil)
	want := fmt.Sprintf("version %d, want %d (upgrade the older side)", wire.Version-1, wire.Version)
	if err != nil || f.Op != wire.RespErr || !strings.Contains(string(f.Payload), want) {
		t.Fatalf("version mismatch: %+v err=%v", f, err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := wire.ReadFrameBuf(nc, 0, nil); err == nil {
		t.Fatal("connection survived version mismatch")
	}
}

// TestReplicaLagContiguity pins the replica's lag bookkeeping: the
// advertised lag is stream head minus the highest CONTIGUOUSLY applied
// sequence, so lost records keep the lag pinned (a replica missing writes
// must never look fresh to an SSP router), replays after a reconnect are
// absorbed, and a primary restart resets the cursor to the new numbering.
func TestReplicaLagContiguity(t *testing.T) {
	m := &Model{}
	apply := func(seq, head uint64) int64 {
		t.Helper()
		m.applyReplSeq(seq, head)
		return m.replicaLag.Load()
	}

	// In-order frames: lag is simply head − seq.
	if lag := apply(1, 1); lag != 0 {
		t.Fatalf("after (1,1): lag = %d, want 0", lag)
	}
	if lag := apply(2, 5); lag != 3 {
		t.Fatalf("after (2,5): lag = %d, want 3", lag)
	}
	if lag := apply(3, 5); lag != 2 {
		t.Fatalf("after (3,5): lag = %d, want 2", lag)
	}

	// A gap: sequences 4 and 5 never arrive. Applying 6 must NOT advance
	// the cursor — the advertised lag stays pinned at the distance back to
	// the last contiguous sequence (3) even as later frames drain.
	if lag := apply(6, 6); lag != 3 {
		t.Fatalf("after gapped (6,6): lag = %d, want 3 (pinned at the loss)", lag)
	}
	if lag := apply(7, 7); lag != 4 {
		t.Fatalf("after gapped (7,7): lag = %d, want 4 (gap + new backlog)", lag)
	}

	// The primary replays the gap from its ring: contiguity is restored
	// and the cursor catches all the way up through the already-seen 6,7.
	if lag := apply(4, 7); lag != 3 {
		t.Fatalf("after replayed (4,7): lag = %d, want 3", lag)
	}
	if lag := apply(5, 7); lag != 2 {
		t.Fatalf("after replayed (5,7): lag = %d, want 2", lag)
	}
	if lag := apply(6, 7); lag != 1 {
		t.Fatalf("after replayed (6,7): lag = %d, want 1", lag)
	}
	if lag := apply(7, 7); lag != 0 {
		t.Fatalf("after replayed (7,7): lag = %d, want 0", lag)
	}

	// Replays of frames at or below the cursor are idempotent no-ops.
	if lag := apply(6, 7); lag != 0 {
		t.Fatalf("after duplicate (6,7): lag = %d, want 0", lag)
	}

	// A primary restart renumbers the stream from 1: head below the cursor
	// resets the bookkeeping to the new generation.
	if lag := apply(1, 1); lag != 0 {
		t.Fatalf("after restart (1,1): lag = %d, want 0", lag)
	}
	if lag := apply(2, 4); lag != 2 {
		t.Fatalf("after restart (2,4): lag = %d, want 2", lag)
	}
}

// TestBootstrapProbeIsNotAnError pins what a non-clustered server does
// with the cluster ops: CLUSTERMAP, which every client sends once at
// Connect, is answered with an empty map and counts no error, while the
// control ops that only make sense inside a cluster keep refusing.
func TestBootstrapProbeIsNotAnError(t *testing.T) {
	addr, srv, stop := startServer(t, t.TempDir())
	defer stop()

	db, err := mlkv.Connect(mlkv.Scheme + addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open("probe", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := m.Stats(); st.Puts != 1 || st.ClusterNodes != 0 {
		t.Fatalf("single-server stats: puts=%d clusterNodes=%d, want 1 and 0", st.Puts, st.ClusterNodes)
	}
	if n := srv.Stats().Errors; n != 0 {
		t.Fatalf("Connect + Open + Put cost %d server errors, want 0", n)
	}

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fw := wire.NewFrameWriter(nc)
	for i, op := range []wire.Op{wire.OpClusterJoin, wire.OpClusterPing, wire.OpClusterLeave, wire.OpClusterSync} {
		if err := fw.Write(uint32(i), op, nil); err != nil {
			t.Fatal(err)
		}
		if f, _, err := wire.ReadFrameBuf(nc, 0, nil); err != nil || f.Op != wire.RespErr {
			t.Fatalf("%s on a non-clustered server: %+v err=%v, want RespErr", op, f, err)
		}
	}
}

// TestFlagBound pins mlkv-server's -staleness mapping: -2 is the shared
// default, -1 turns the clock off (plain FASTER), and other negatives are
// refused.
func TestFlagBound(t *testing.T) {
	for _, c := range []struct {
		staleness int64
		want      int64
		err       bool
	}{
		{-2, kv.DefaultBound, false},
		{0, 0, false},
		{4, 4, false},
		{-1, -1, false},
		{-3, 0, true},
	} {
		got, err := FlagBound(c.staleness)
		if (err != nil) != c.err || (!c.err && got != c.want) {
			t.Fatalf("FlagBound(%d) = %d, %v; want %d (error %v)", c.staleness, got, err, c.want, c.err)
		}
	}
}
