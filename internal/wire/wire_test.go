package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// TestFrameRoundTrip is the frame-layer property test: random frames must
// survive a write/read cycle byte-exactly, alone and back to back.
func TestFrameRoundTrip(t *testing.T) {
	r := util.NewRNG(1)
	var buf bytes.Buffer
	type sent struct {
		corrID  uint32
		op      Op
		payload []byte
	}
	var frames []sent
	fw := NewFrameWriter(&buf)
	for i := 0; i < 200; i++ {
		f := sent{
			corrID: uint32(r.Uint64()),
			op:     Op(r.Uint64n(256)),
		}
		n := int(r.Uint64n(512))
		f.payload = make([]byte, n)
		for j := range f.payload {
			f.payload[j] = byte(r.Uint64())
		}
		if err := fw.Write(f.corrID, f.op, f.payload); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	var rbuf []byte
	for i, want := range frames {
		var got Frame
		var err error
		got, rbuf, err = ReadFrameBuf(&buf, 0, rbuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.CorrID != want.corrID || got.Op != want.op || !bytes.Equal(got.Payload, want.payload) {
			t.Fatalf("frame %d mismatch: got corr=%d op=%d %d bytes, want corr=%d op=%d %d bytes",
				i, got.CorrID, got.Op, len(got.Payload), want.corrID, want.op, len(want.payload))
		}
	}
	if _, _, err := ReadFrameBuf(&buf, 0, rbuf); err != io.EOF {
		t.Fatalf("after last frame: want io.EOF, got %v", err)
	}
}

// TestFrameTruncated cuts a valid frame at every byte boundary: all but
// the zero-length cut must yield io.ErrUnexpectedEOF, never a partial
// frame or a hang.
func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).Write(7, OpPut, []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ReadFrameBuf(bytes.NewReader(whole[:cut]), 0, nil)
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if !errors.Is(err, want) {
			t.Fatalf("cut at %d: want %v, got %v", cut, want, err)
		}
	}
}

// TestFrameLimits covers the oversized- and malformed-length error paths.
func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).Write(1, OpGet, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrameBuf(bytes.NewReader(buf.Bytes()), 64, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// A length below corrID+op can never frame a message.
	if _, _, err := ReadFrameBuf(bytes.NewReader([]byte{4, 0, 0, 0, 9, 9, 9, 9}), 0, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

// stripHandle asserts the payload's handle prefix and returns the per-op
// remainder, mirroring what the server does on every data frame.
func stripHandle(t *testing.T, p []byte, want uint32) []byte {
	t.Helper()
	h, rest, err := DecodeHandle(p)
	if err != nil {
		t.Fatal(err)
	}
	if h != want {
		t.Fatalf("handle = %d, want %d", h, want)
	}
	return rest
}

// TestPayloadRoundTrips drives every op payload through encode/decode with
// randomized contents.
func TestPayloadRoundTrips(t *testing.T) {
	r := util.NewRNG(2)
	const vs = 24
	const hdl = uint32(7)
	randVal := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		return b
	}
	randKeys := func(n int) []uint64 {
		ks := make([]uint64, n)
		for i := range ks {
			ks[i] = r.Uint64()
		}
		return ks
	}

	if v, err := DecodeHello(EncodeHello()); err != nil || v != Version {
		t.Fatalf("hello: v=%d err=%v", v, err)
	}
	if v, name, err := DecodeHelloResp(EncodeHelloResp("mlkv")); err != nil || v != Version || name != "mlkv" {
		t.Fatalf("hello resp: %d %q %v", v, name, err)
	}

	id, dim, sh, bound, err := DecodeOpen(EncodeOpen("ctr-model", 16, 4, 8))
	if err != nil || id != "ctr-model" || dim != 16 || sh != 4 || bound != 8 {
		t.Fatalf("open: %q %d %d %d %v", id, dim, sh, bound, err)
	}
	if _, _, _, b, err := DecodeOpen(EncodeOpen("m", 8, 0, BoundUnset)); err != nil || b != BoundUnset {
		t.Fatalf("open unset bound: %d %v", b, err)
	}
	// OPEN at v6 carries no engine byte: the id starts at byte 16, and a
	// bare 16-byte header opens the empty id.
	if p := EncodeOpen("xyz", 8, 2, 4); len(p) != 19 || string(p[16:]) != "xyz" {
		t.Fatalf("open layout: %d bytes, tail %q", len(p), p[16:])
	}
	if id, _, _, _, err := DecodeOpen(EncodeOpen("", 8, 2, 4)); err != nil || id != "" {
		t.Fatalf("open empty id: %q %v", id, err)
	}
	oh, odim, osh, ob, oname, err := DecodeOpenResp(EncodeOpenResp(3, 16, 4, -1, "mlkv"))
	if err != nil || oh != 3 || odim != 16 || osh != 4 || ob != -1 || oname != "mlkv" {
		t.Fatalf("open resp: %d %d %d %d %q %v", oh, odim, osh, ob, oname, err)
	}

	if h, rest, err := DecodeHandle(EncodeHandle(hdl)); err != nil || h != hdl || len(rest) != 0 {
		t.Fatalf("handle: %d %d %v", h, len(rest), err)
	}
	if k, err := DecodeKey(stripHandle(t, AppendKey(nil, hdl, 0xdeadbeef), hdl)); err != nil || k != 0xdeadbeef {
		t.Fatalf("key: %x %v", k, err)
	}
	if k, w, err := DecodeGet(stripHandle(t, AppendGet(nil, hdl, 0xfeed, 1500), hdl)); err != nil || k != 0xfeed || w != 1500 {
		t.Fatalf("get: %x wait=%d %v", k, w, err)
	}

	val := randVal(vs)
	k2, v2, err := DecodePut(stripHandle(t, AppendPut(nil, hdl, 42, val), hdl), vs)
	if err != nil || k2 != 42 || !bytes.Equal(v2, val) {
		t.Fatalf("put: %d %v", k2, err)
	}

	grad := make([]float32, vs/4)
	for i := range grad {
		grad[i] = r.Float32()*2 - 1
	}
	gotGrad := make([]float32, len(grad))
	ak, alr, err := DecodeApply(stripHandle(t, AppendApply(nil, hdl, 43, 0.25, grad), hdl), gotGrad)
	if err != nil || ak != 43 || alr != 0.25 || !reflect.DeepEqual(gotGrad, grad) {
		t.Fatalf("apply: key=%d lr=%v grad=%v err=%v", ak, alr, gotGrad, err)
	}
	// A gradient of the wrong dimension is refused, not truncated or padded.
	for _, dim := range []int{len(grad) - 1, len(grad) + 1} {
		if _, _, err := DecodeApply(stripHandle(t, AppendApply(nil, hdl, 43, 0.25, grad), hdl), make([]float32, dim)); err == nil {
			t.Fatalf("apply: a %d-float gradient decoded into dim %d", len(grad), dim)
		}
	}
	for _, want := range []bool{true, false} {
		if found, err := DecodeApplyResp(AppendApplyResp(nil, want)); err != nil || found != want {
			t.Fatalf("apply resp: found=%v err=%v, want %v", found, err, want)
		}
	}
	if got := OpApply.String(); got != "APPLY" {
		t.Fatalf("OpApply.String() = %q", got)
	}

	dst := make([]byte, vs)
	if found, err := DecodeGetResp(AppendGetResp(nil, true, val), dst); err != nil || !found || !bytes.Equal(dst, val) {
		t.Fatalf("get hit: %v %v", found, err)
	}
	if found, err := DecodeGetResp(AppendGetResp(nil, false, nil), dst); err != nil || found {
		t.Fatalf("get miss: %v %v", found, err)
	}

	for _, n := range []int{0, 1, 7, 256} {
		keys := randKeys(n)
		got, err := DecodeKeys(stripHandle(t, AppendKeys(nil, hdl, keys), hdl), nil)
		if err != nil || len(got) != n {
			t.Fatalf("keys n=%d: len=%d %v", n, len(got), err)
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("keys n=%d: [%d] = %d want %d", n, i, got[i], keys[i])
			}
		}

		gb, gw, err := DecodeGetBatch(stripHandle(t, AppendGetBatch(nil, hdl, 250, keys), hdl), nil)
		if err != nil || len(gb) != n || gw != 250 {
			t.Fatalf("getbatch n=%d: len=%d wait=%d %v", n, len(gb), gw, err)
		}

		vals := randVal(n * vs)
		gk, gv, err := DecodePutBatch(stripHandle(t, AppendPutBatch(nil, hdl, keys, vals), hdl), vs, nil)
		if err != nil || len(gk) != n || !bytes.Equal(gv, vals) {
			t.Fatalf("putbatch n=%d: %v", n, err)
		}

		found := make([]bool, n)
		for i := range found {
			found[i] = r.Uint64n(2) == 1
		}
		df, dv := make([]bool, n), make([]byte, n*vs)
		if err := DecodeGetBatchResp(EncodeGetBatchResp(found, vals), vs, df, dv); err != nil {
			t.Fatalf("getbatch resp n=%d: %v", n, err)
		}
		for i := range found {
			if df[i] != found[i] {
				t.Fatalf("getbatch resp n=%d: found[%d] = %v", n, i, df[i])
			}
		}
		if !bytes.Equal(dv, vals) {
			t.Fatalf("getbatch resp n=%d: values differ", n)
		}
	}

	if v, err := DecodeUint32(EncodeUint32(77)); err != nil || v != 77 {
		t.Fatalf("uint32: %d %v", v, err)
	}
}

// TestDecodeRejectsTruncation feeds every decoder every proper prefix of a
// valid payload: each must error (never panic, never accept).
func TestDecodeRejectsTruncation(t *testing.T) {
	const vs = 16
	keys := []uint64{1, 2, 3}
	vals := bytes.Repeat([]byte{9}, 3*vs)
	found := []bool{true, false, true}
	// Variable-length string tails: a shorter tail is still a valid payload.
	varTail := map[string]int{"helloResp": 4, "open": 16, "openResp": 20}
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"hello", EncodeHello(), func(p []byte) error { _, err := DecodeHello(p); return err }},
		{"helloResp", EncodeHelloResp("x"), func(p []byte) error { _, _, err := DecodeHelloResp(p); return err }},
		{"open", EncodeOpen("m", 8, 2, 4), func(p []byte) error { _, _, _, _, err := DecodeOpen(p); return err }},
		{"openResp", EncodeOpenResp(1, 8, 2, 4, "x"), func(p []byte) error { _, _, _, _, _, err := DecodeOpenResp(p); return err }},
		{"handle", EncodeHandle(5), func(p []byte) error { _, _, err := DecodeHandle(p); return err }},
		{"key", stripHandle(t, AppendKey(nil, 1, 5), 1), func(p []byte) error { _, err := DecodeKey(p); return err }},
		{"get", stripHandle(t, AppendGet(nil, 1, 5, 9), 1), func(p []byte) error { _, _, err := DecodeGet(p); return err }},
		{"getBatch", stripHandle(t, AppendGetBatch(nil, 1, 9, keys), 1), func(p []byte) error { _, _, err := DecodeGetBatch(p, nil); return err }},
		{"put", stripHandle(t, AppendPut(nil, 1, 5, vals[:vs]), 1), func(p []byte) error { _, _, err := DecodePut(p, vs); return err }},
		{"apply", stripHandle(t, AppendApply(nil, 1, 5, 0.5, []float32{1, 2, 3, 4}), 1), func(p []byte) error {
			_, _, err := DecodeApply(p, make([]float32, 4))
			return err
		}},
		{"applyResp", AppendApplyResp(nil, true), func(p []byte) error { _, err := DecodeApplyResp(p); return err }},
		{"getRespHit", AppendGetResp(nil, true, vals[:vs]), func(p []byte) error {
			_, err := DecodeGetResp(p, make([]byte, vs))
			return err
		}},
		{"keys", stripHandle(t, AppendKeys(nil, 1, keys), 1), func(p []byte) error { _, err := DecodeKeys(p, nil); return err }},
		{"putBatch", stripHandle(t, AppendPutBatch(nil, 1, keys, vals), 1), func(p []byte) error { _, _, err := DecodePutBatch(p, vs, nil); return err }},
		{"getBatchResp", EncodeGetBatchResp(found, vals), func(p []byte) error {
			return DecodeGetBatchResp(p, vs, make([]bool, 3), make([]byte, 3*vs))
		}},
		{"uint32", EncodeUint32(9), func(p []byte) error { _, err := DecodeUint32(p); return err }},
		{"stats", stats.Counters{BatchGets: 1}.Encode(), func(p []byte) error { _, err := stats.Decode(p); return err }},
	}
	for _, tc := range cases {
		if err := tc.decode(tc.payload); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", tc.name, err)
		}
		minLen, hasTail := varTail[tc.name]
		for cut := 0; cut < len(tc.payload); cut++ {
			if hasTail && cut >= minLen {
				continue // a shorter string tail is still a valid payload
			}
			if err := tc.decode(tc.payload[:cut]); err == nil {
				t.Fatalf("%s: accepted %d/%d-byte prefix", tc.name, cut, len(tc.payload))
			}
		}
		if tc.name == "handle" {
			continue // the handle prefix legitimately carries the op payload
		}
		if err := tc.decode(append(append([]byte{}, tc.payload...), 0)); err == nil && !hasTail {
			t.Fatalf("%s: accepted payload with a trailing byte", tc.name)
		}
	}
}

// TestBatchLimit verifies the decoder refuses batches beyond MaxBatchKeys
// before reading key data.
func TestBatchLimit(t *testing.T) {
	p := make([]byte, 4)
	p[0], p[1], p[2] = 0xff, 0xff, 0xff // n = 16M, far over the limit
	if _, err := DecodeKeys(p, nil); err == nil {
		t.Fatal("oversized key count accepted")
	}
	if _, _, err := DecodePutBatch(p, 8, nil); err == nil {
		t.Fatal("oversized PUTBATCH count accepted")
	}
}
