package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// The two rungs below the public API. Both speak float32 to the op loop
// like every other rung, so each carries the harness's own little-endian
// float codec; what the rungs above them add is therefore net of it.

func encodeFloats(dst []byte, src []float32) {
	for i, f := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(f))
	}
}

func decodeFloats(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

func grown[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// engineSession is the engine rung: kv.OpenEngine("faster", …) driven
// through the kv seam. There is no first-touch init and no lookahead
// pool down here (both are core's), so Lookahead does nothing and RMW is
// a Get, the step, and a Put.
type engineSession struct {
	s     kv.Session
	vs    int
	b     []byte
	found []bool
	rmw   []float32
}

func openEngine(sp *spec, dir string, shards int) (kv.Store, error) {
	rpp := 1024 // core.OpenTable's page size, which local targets get
	if sp.target != targetLocal {
		rpp = 256 // mlkv-server's
	}
	return kv.OpenEngine("faster", kv.ShardedConfig{
		Dir: dir, Shards: shards, ValueSize: sp.dim * 4,
		RecordsPerPage: rpp, MemoryBytes: sp.memory,
		ExpectedKeys: uint64(sp.records), StalenessBound: sp.bound,
	}, "faster")
}

func (e *engineSession) Get(_ context.Context, k uint64, dst []float32) error {
	e.b = grown(e.b, e.vs)
	ok, err := e.s.Get(k, e.b)
	if err != nil {
		return err
	}
	if !ok {
		clear(e.b)
	}
	decodeFloats(dst, e.b)
	return nil
}

func (e *engineSession) GetBatch(_ context.Context, ks []uint64, dst []float32) error {
	e.b, e.found = grown(e.b, len(ks)*e.vs), grown(e.found, len(ks))
	if err := kv.SessionGetBatch(e.s, e.vs, ks, e.b, e.found); err != nil {
		return err
	}
	decodeFloats(dst, e.b)
	return nil
}

func (e *engineSession) Put(_ context.Context, k uint64, v []float32) error {
	e.b = grown(e.b, e.vs)
	encodeFloats(e.b, v)
	return e.s.Put(k, e.b)
}

func (e *engineSession) PutBatch(_ context.Context, ks []uint64, vs []float32) error {
	e.b = grown(e.b, len(ks)*e.vs)
	encodeFloats(e.b, vs)
	return kv.SessionPutBatch(e.s, e.vs, ks, e.b)
}

func (e *engineSession) RMW(ctx context.Context, k uint64, g []float32, lr float32) error {
	e.rmw = grown(e.rmw, len(g))
	v := e.rmw
	if err := e.Get(ctx, k, v); err != nil {
		return err
	}
	for i := range v {
		v[i] -= lr * g[i]
	}
	return e.Put(ctx, k, v)
}

func (e *engineSession) Lookahead([]uint64) error { return nil }
func (e *engineSession) Close()                   { e.s.Close() }

// wireSession is the wire rung: every op becomes the frames a remote
// session would send, written through a FrameWriter into an in-memory
// buffer, read back and decoded as the server would, answered with a
// response frame, and decoded as the client would. No socket, no store:
// the "server" answers a read with f(key, 0).
type wireSession struct {
	dim, vs int
	net     bytes.Buffer
	fw      *wire.FrameWriter
	req     []byte // request payload scratch
	srv     []byte // server-side frame buffer
	cli     []byte // client-side frame buffer
	keys    []uint64
	found   []bool
	vals    []byte
	fv, rmw []float32
	corr    uint32

	frames, bytes, nkeys int64
}

func newWireSession(dim int) *wireSession {
	w := &wireSession{dim: dim, vs: dim * 4, fv: make([]float32, dim)}
	w.fw = wire.NewFrameWriter(&w.net)
	return w
}

const wireHandle = 1

// send writes one request frame and reads it back server-side, returning
// the payload after the model handle.
func (w *wireSession) send(op wire.Op, nkeys int) ([]byte, error) {
	w.corr++
	w.frames++
	w.nkeys += int64(nkeys)
	if err := w.fw.Write(w.corr, op, w.req); err != nil {
		return nil, err
	}
	w.bytes += int64(w.net.Len())
	f, buf, err := wire.ReadFrameBuf(&w.net, 0, w.srv)
	w.srv = buf
	if err != nil {
		return nil, err
	}
	if f.Op != op || f.CorrID != w.corr {
		return nil, fmt.Errorf("wire rung: sent %v/%d, server read %v/%d", op, w.corr, f.Op, f.CorrID)
	}
	_, rest, err := wire.DecodeHandle(f.Payload)
	return rest, err
}

// reply writes the response frame and reads it back client-side.
func (w *wireSession) reply(payload []byte) ([]byte, error) {
	if err := w.fw.Write(w.corr, wire.RespOK, payload); err != nil {
		return nil, err
	}
	w.bytes += int64(w.net.Len())
	f, buf, err := wire.ReadFrameBuf(&w.net, 0, w.cli)
	w.cli = buf
	if err != nil {
		return nil, err
	}
	if f.Op != wire.RespOK || f.CorrID != w.corr {
		return nil, fmt.Errorf("wire rung: client read %v/%d, want OK/%d", f.Op, f.CorrID, w.corr)
	}
	return f.Payload, nil
}

// serve fills slot i of w.vals with the value the fake server holds.
func (w *wireSession) serve(i int, key uint64) {
	fillValue(w.fv, key, 0)
	encodeFloats(w.vals[i*w.vs:(i+1)*w.vs], w.fv)
}

func (w *wireSession) Get(_ context.Context, k uint64, dst []float32) error {
	w.req = wire.AppendGet(w.req[:0], wireHandle, k, uint32(callTimeout.Milliseconds()))
	rest, err := w.send(wire.OpGet, 1)
	if err != nil {
		return err
	}
	key, _, err := wire.DecodeGet(rest)
	if err != nil {
		return err
	}
	w.vals = grown(w.vals, w.vs)
	w.serve(0, key)
	p, err := w.reply(wire.AppendGetResp(w.req[:0], true, w.vals))
	if err != nil {
		return err
	}
	if _, err := wire.DecodeGetResp(p, w.vals); err != nil {
		return err
	}
	decodeFloats(dst, w.vals)
	return nil
}

func (w *wireSession) Put(_ context.Context, k uint64, v []float32) error {
	w.vals = grown(w.vals, w.vs)
	encodeFloats(w.vals, v)
	w.req = wire.AppendPut(w.req[:0], wireHandle, k, w.vals)
	rest, err := w.send(wire.OpPut, 1)
	if err != nil {
		return err
	}
	if _, _, err := wire.DecodePut(rest, w.vs); err != nil {
		return err
	}
	_, err = w.reply(nil)
	return err
}

func (w *wireSession) RMW(ctx context.Context, k uint64, g []float32, lr float32) error {
	// What the remote driver does: a clocked read, the step client-side,
	// the balancing write.
	w.rmw = grown(w.rmw, len(g))
	v := w.rmw
	if err := w.Get(ctx, k, v); err != nil {
		return err
	}
	for i := range v {
		v[i] -= lr * g[i]
	}
	return w.Put(ctx, k, v)
}

func (w *wireSession) GetBatch(_ context.Context, ks []uint64, dst []float32) error {
	w.req = wire.AppendGetBatch(w.req[:0], wireHandle, uint32(callTimeout.Milliseconds()), ks)
	rest, err := w.send(wire.OpGetBatch, len(ks))
	if err != nil {
		return err
	}
	if w.keys, _, err = wire.DecodeGetBatch(rest, w.keys); err != nil {
		return err
	}
	w.vals, w.found = grown(w.vals, len(w.keys)*w.vs), grown(w.found, len(w.keys))
	for i, k := range w.keys {
		w.found[i] = true
		w.serve(i, k)
	}
	p, err := w.reply(wire.EncodeGetBatchResp(w.found, w.vals))
	if err != nil {
		return err
	}
	if err := wire.DecodeGetBatchResp(p, w.vs, w.found, w.vals); err != nil {
		return err
	}
	decodeFloats(dst, w.vals)
	return nil
}

func (w *wireSession) PutBatch(_ context.Context, ks []uint64, vs []float32) error {
	w.vals = grown(w.vals, len(ks)*w.vs)
	encodeFloats(w.vals, vs)
	w.req = wire.AppendPutBatch(w.req[:0], wireHandle, ks, w.vals)
	rest, err := w.send(wire.OpPutBatch, len(ks))
	if err != nil {
		return err
	}
	if w.keys, _, err = wire.DecodePutBatch(rest, w.vs, w.keys); err != nil {
		return err
	}
	_, err = w.reply(nil)
	return err
}

func (w *wireSession) Lookahead(ks []uint64) error {
	w.req = wire.AppendKeys(w.req[:0], wireHandle, ks)
	rest, err := w.send(wire.OpLookahead, 0)
	if err != nil {
		return err
	}
	if w.keys, err = wire.DecodeKeys(rest, w.keys); err != nil {
		return err
	}
	p, err := w.reply(wire.EncodeUint32(uint32(len(w.keys))))
	if err != nil {
		return err
	}
	_, err = wire.DecodeUint32(p)
	return err
}

func (w *wireSession) Close() {}
