package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Payload layouts, one section per op. Every decoder checks lengths
// exactly — a payload with trailing or missing bytes is an error, never a
// silent truncation — and returns ErrShortPayload-wrapped errors so the
// server can answer RespErr without dropping the connection.
//
// Since protocol version 2 every data-op payload starts with the uint32
// model handle returned by OPEN; servers strip it with DecodeHandle and
// hand the rest to the per-op decoder.

// BoundUnset is the staleness-bound sentinel in an OPEN request meaning
// "the caller did not specify a bound": the server applies its default to
// a new model and answers with a live model's bound. Any other bound must
// equal a live model's (see kv.ResolveOpen): the bound is fixed while the
// model is open.
const BoundUnset = int64(math.MinInt64)

// EncodeHello builds the HELLO request: uint32 version.
func EncodeHello() []byte {
	p := make([]byte, 4)
	binary.LittleEndian.PutUint32(p, Version)
	return p
}

// DecodeHello parses a HELLO request.
func DecodeHello(p []byte) (version uint32, err error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("%w: HELLO wants 4 bytes, got %d", ErrShortPayload, len(p))
	}
	return binary.LittleEndian.Uint32(p), nil
}

// EncodeHelloResp builds the HELLO response: uint32 version | server name
// bytes. Store geometry moved to the OPEN response in version 2 — a
// multi-model server has no single value size or shard count to report.
func EncodeHelloResp(name string) []byte {
	p := make([]byte, 4+len(name))
	binary.LittleEndian.PutUint32(p[0:], Version)
	copy(p[4:], name)
	return p
}

// DecodeHelloResp parses a HELLO response.
func DecodeHelloResp(p []byte) (version uint32, name string, err error) {
	if len(p) < 4 {
		return 0, "", fmt.Errorf("%w: HELLO response wants >= 4 bytes, got %d", ErrShortPayload, len(p))
	}
	return binary.LittleEndian.Uint32(p[0:]), string(p[4:]), nil
}

// EncodeOpen builds an OPEN request: uint32 dim | uint32 shards (0 lets
// the server choose) | int64 staleness bound (BoundUnset for the server
// default) | model id bytes.
func EncodeOpen(id string, dim, shards int, bound int64) []byte {
	p := make([]byte, 16+len(id))
	binary.LittleEndian.PutUint32(p[0:], uint32(dim))
	binary.LittleEndian.PutUint32(p[4:], uint32(shards))
	binary.LittleEndian.PutUint64(p[8:], uint64(bound))
	copy(p[16:], id)
	return p
}

// DecodeOpen parses an OPEN request.
func DecodeOpen(p []byte) (id string, dim, shards int, bound int64, err error) {
	if len(p) < 16 {
		return "", 0, 0, 0, fmt.Errorf("%w: OPEN wants >= 16 bytes, got %d", ErrShortPayload, len(p))
	}
	return string(p[16:]),
		int(binary.LittleEndian.Uint32(p[0:])),
		int(binary.LittleEndian.Uint32(p[4:])),
		int64(binary.LittleEndian.Uint64(p[8:])), nil
}

// EncodeOpenResp builds an OPEN response: uint32 handle | uint32 dim |
// uint32 shards | int64 staleness bound in effect | store name bytes
// (Store.Name: "mlkv", or "faster" with the clock off).
func EncodeOpenResp(handle uint32, dim, shards int, bound int64, name string) []byte {
	p := make([]byte, 20+len(name))
	binary.LittleEndian.PutUint32(p[0:], handle)
	binary.LittleEndian.PutUint32(p[4:], uint32(dim))
	binary.LittleEndian.PutUint32(p[8:], uint32(shards))
	binary.LittleEndian.PutUint64(p[12:], uint64(bound))
	copy(p[20:], name)
	return p
}

// DecodeOpenResp parses an OPEN response.
func DecodeOpenResp(p []byte) (handle uint32, dim, shards int, bound int64, name string, err error) {
	if len(p) < 20 {
		return 0, 0, 0, 0, "", fmt.Errorf("%w: OPEN response wants >= 20 bytes, got %d", ErrShortPayload, len(p))
	}
	return binary.LittleEndian.Uint32(p[0:]),
		int(binary.LittleEndian.Uint32(p[4:])),
		int(binary.LittleEndian.Uint32(p[8:])),
		int64(binary.LittleEndian.Uint64(p[12:])),
		string(p[20:]), nil
}

// EncodeHandle builds a bare-handle payload (ATTACH, DETACH, CHECKPOINT,
// STATS) or the handle prefix of a data op.
func EncodeHandle(handle uint32) []byte {
	p := make([]byte, 4)
	binary.LittleEndian.PutUint32(p, handle)
	return p
}

// DecodeHandle strips the uint32 model handle every data payload starts
// with, returning the remainder for the per-op decoder.
func DecodeHandle(p []byte) (handle uint32, rest []byte, err error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w: handle wants >= 4 bytes, got %d", ErrShortPayload, len(p))
	}
	return binary.LittleEndian.Uint32(p), p[4:], nil
}

// The Append* builders are the zero-allocation faces of their Encode*
// counterparts: they append the payload to dst (usually a caller-owned
// scratch sliced to [:0]) and return the extended slice, so a session
// issuing millions of requests reuses one buffer instead of allocating
// per frame. Encode* remains for cold paths and tests.

// AppendKey appends a single-key request payload (DELETE).
func AppendKey(dst []byte, handle uint32, key uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	return binary.LittleEndian.AppendUint64(dst, key)
}

// EncodeKey builds a single-key request payload (DELETE):
// uint32 handle | uint64 key.
func EncodeKey(handle uint32, key uint64) []byte {
	return AppendKey(make([]byte, 0, 12), handle, key)
}

// AppendGet appends a GET request payload (see EncodeGet).
func AppendGet(dst []byte, handle uint32, key uint64, waitMs uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	dst = binary.LittleEndian.AppendUint64(dst, key)
	return binary.LittleEndian.AppendUint32(dst, waitMs)
}

// EncodeGet builds a GET request: uint32 handle | uint64 key | uint32
// waitMs. waitMs carries the client's remaining context budget (0 = wait
// forever): a clocked read stalled on the staleness bound gives up
// server-side at the deadline instead of stranding a token on a request
// the client has already abandoned.
func EncodeGet(handle uint32, key uint64, waitMs uint32) []byte {
	return AppendGet(make([]byte, 0, 16), handle, key, waitMs)
}

// DecodeGet parses a GET request (after DecodeHandle).
func DecodeGet(p []byte) (key uint64, waitMs uint32, err error) {
	if len(p) != 12 {
		return 0, 0, fmt.Errorf("%w: GET wants 12 bytes, got %d", ErrShortPayload, len(p))
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint32(p[8:]), nil
}

// DecodeKey parses a single-key request (after DecodeHandle).
func DecodeKey(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: key wants 8 bytes, got %d", ErrShortPayload, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// AppendPut appends a PUT request payload (see EncodePut).
func AppendPut(dst []byte, handle uint32, key uint64, val []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	dst = binary.LittleEndian.AppendUint64(dst, key)
	return append(dst, val...)
}

// EncodePut builds a PUT request: uint32 handle | uint64 key | valueSize
// value bytes.
func EncodePut(handle uint32, key uint64, val []byte) []byte {
	return AppendPut(make([]byte, 0, 12+len(val)), handle, key, val)
}

// DecodePut parses a PUT request (after DecodeHandle); val aliases p.
func DecodePut(p []byte, valueSize int) (key uint64, val []byte, err error) {
	if len(p) != 8+valueSize {
		return 0, nil, fmt.Errorf("%w: PUT wants %d bytes, got %d", ErrShortPayload, 8+valueSize, len(p))
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

// AppendApply appends an APPLY request payload: uint32 handle | uint64 key
// | float32 lr | dim×float32 grad.
func AppendApply(dst []byte, handle uint32, key uint64, lr float32, grad []float32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(lr))
	for _, g := range grad {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(g))
	}
	return dst
}

// DecodeApply parses an APPLY request (after DecodeHandle) into grad, whose
// length is the model's dim: a gradient of any other dimension is refused.
func DecodeApply(p []byte, grad []float32) (key uint64, lr float32, err error) {
	if len(p) != 12+4*len(grad) {
		return 0, 0, fmt.Errorf("%w: APPLY wants %d bytes, got %d", ErrShortPayload, 12+4*len(grad), len(p))
	}
	for i := range grad {
		grad[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[12+4*i:]))
	}
	return binary.LittleEndian.Uint64(p), math.Float32frombits(binary.LittleEndian.Uint32(p[8:])), nil
}

// AppendApplyResp appends an APPLY response payload: uint8 found.
func AppendApplyResp(dst []byte, found bool) []byte {
	if found {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeApplyResp parses an APPLY response.
func DecodeApplyResp(p []byte) (found bool, err error) {
	if len(p) != 1 {
		return false, fmt.Errorf("%w: APPLY response wants 1 byte, got %d", ErrShortPayload, len(p))
	}
	return p[0] != 0, nil
}

// AppendGetResp appends a GET response payload (see EncodeGetResp).
func AppendGetResp(dst []byte, found bool, val []byte) []byte {
	if !found {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return append(dst, val...)
}

// EncodeGetResp builds a GET response: uint8 found | value (present only
// when found).
func EncodeGetResp(found bool, val []byte) []byte {
	return AppendGetResp(make([]byte, 0, 1+len(val)), found, val)
}

// DecodeGetResp parses a GET response into dst (len == valueSize).
func DecodeGetResp(p []byte, dst []byte) (bool, error) {
	if len(p) < 1 {
		return false, fmt.Errorf("%w: empty GET response", ErrShortPayload)
	}
	if p[0] == 0 {
		if len(p) != 1 {
			return false, fmt.Errorf("%w: GET miss carries %d extra bytes", ErrShortPayload, len(p)-1)
		}
		return false, nil
	}
	if len(p) != 1+len(dst) {
		return false, fmt.Errorf("%w: GET hit wants %d bytes, got %d", ErrShortPayload, 1+len(dst), len(p))
	}
	copy(dst, p[1:])
	return true, nil
}

// AppendGetBatch appends a GETBATCH request payload (see EncodeGetBatch).
func AppendGetBatch(dst []byte, handle uint32, waitMs uint32, keys []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	dst = binary.LittleEndian.AppendUint32(dst, waitMs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// EncodeGetBatch builds a GETBATCH request: uint32 handle | uint32
// waitMs (see EncodeGet) | uint32 n | n×uint64 keys.
func EncodeGetBatch(handle uint32, waitMs uint32, keys []uint64) []byte {
	return AppendGetBatch(make([]byte, 0, 12+8*len(keys)), handle, waitMs, keys)
}

// DecodeGetBatch parses a GETBATCH request (after DecodeHandle),
// appending keys into buf like DecodeKeys.
func DecodeGetBatch(p []byte, buf []uint64) (keys []uint64, waitMs uint32, err error) {
	if len(p) < 4 {
		return nil, 0, fmt.Errorf("%w: GETBATCH wants >= 4 bytes, got %d", ErrShortPayload, len(p))
	}
	waitMs = binary.LittleEndian.Uint32(p)
	keys, err = DecodeKeys(p[4:], buf)
	return keys, waitMs, err
}

// AppendKeys appends a key-list request payload (see EncodeKeys).
func AppendKeys(dst []byte, handle uint32, keys []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// EncodeKeys builds a key-list request (LOOKAHEAD): uint32
// handle | uint32 n | n×uint64 keys.
func EncodeKeys(handle uint32, keys []uint64) []byte {
	return AppendKeys(make([]byte, 0, 8+8*len(keys)), handle, keys)
}

// DecodeKeys parses a key-list request (after DecodeHandle), appending
// into buf (which may be nil) to let callers reuse one slice across
// frames.
func DecodeKeys(p []byte, buf []uint64) ([]uint64, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: key list wants >= 4 bytes, got %d", ErrShortPayload, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > MaxBatchKeys {
		return nil, fmt.Errorf("wire: batch of %d keys exceeds limit %d", n, MaxBatchKeys)
	}
	if len(p) != 4+8*n {
		return nil, fmt.Errorf("%w: %d-key list wants %d bytes, got %d", ErrShortPayload, n, 4+8*n, len(p))
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, binary.LittleEndian.Uint64(p[4+8*i:]))
	}
	return buf, nil
}

// AppendPutBatch appends a PUTBATCH request payload (see EncodePutBatch).
func AppendPutBatch(dst []byte, handle uint32, keys []uint64, vals []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return append(dst, vals...)
}

// EncodePutBatch builds a PUTBATCH request: uint32 handle | uint32 n |
// n×uint64 keys | n×valueSize values.
func EncodePutBatch(handle uint32, keys []uint64, vals []byte) []byte {
	return AppendPutBatch(make([]byte, 0, 8+8*len(keys)+len(vals)), handle, keys, vals)
}

// DecodePutBatch parses a PUTBATCH request (after DecodeHandle); vals
// aliases p.
func DecodePutBatch(p []byte, valueSize int, buf []uint64) (keys []uint64, vals []byte, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%w: PUTBATCH wants >= 4 bytes, got %d", ErrShortPayload, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > MaxBatchKeys {
		return nil, nil, fmt.Errorf("wire: batch of %d keys exceeds limit %d", n, MaxBatchKeys)
	}
	want := 4 + n*(8+valueSize)
	if len(p) != want {
		return nil, nil, fmt.Errorf("%w: %d-key PUTBATCH wants %d bytes, got %d", ErrShortPayload, n, want, len(p))
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, binary.LittleEndian.Uint64(p[4+8*i:]))
	}
	return buf, p[4+8*n:], nil
}

// EncodeGetBatchResp builds a GETBATCH response: uint32 n | n found bytes
// | n×valueSize values (missing keys zeroed, keeping offsets fixed).
func EncodeGetBatchResp(found []bool, vals []byte) []byte {
	n := len(found)
	p := make([]byte, 4+n+len(vals))
	binary.LittleEndian.PutUint32(p, uint32(n))
	for i, f := range found {
		if f {
			p[4+i] = 1
		}
	}
	copy(p[4+n:], vals)
	return p
}

// DecodeGetBatchResp parses a GETBATCH response into found (len n) and
// vals (len n×valueSize).
func DecodeGetBatchResp(p []byte, valueSize int, found []bool, vals []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("%w: GETBATCH response wants >= 4 bytes, got %d", ErrShortPayload, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n != len(found) {
		return fmt.Errorf("wire: GETBATCH response for %d keys, expected %d", n, len(found))
	}
	want := 4 + n*(1+valueSize)
	if len(p) != want {
		return fmt.Errorf("%w: %d-key GETBATCH response wants %d bytes, got %d", ErrShortPayload, n, want, len(p))
	}
	for i := range found {
		found[i] = p[4+i] != 0
	}
	copy(vals, p[4+n:])
	return nil
}

// EncodeUint32 builds a bare counter payload (LOOKAHEAD response).
func EncodeUint32(v uint32) []byte {
	p := make([]byte, 4)
	binary.LittleEndian.PutUint32(p, v)
	return p
}

// DecodeUint32 parses a bare counter payload.
func DecodeUint32(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("%w: counter wants 4 bytes, got %d", ErrShortPayload, len(p))
	}
	return binary.LittleEndian.Uint32(p), nil
}

// Replication write kinds carried in a REPLWRITE frame.
const (
	// ReplPut upserts every key with its value.
	ReplPut byte = 0
	// ReplDelete removes every key (the frame carries no values).
	ReplDelete byte = 1
)

// AppendReplWrite appends a REPLWRITE request payload: uint32 handle |
// uint64 seq | uint64 head | uint8 kind | uint32 n | n×uint64 keys |
// [n×valueSize values, ReplPut only]. seq numbers this event in the
// primary's per-model replication stream; head is the newest sequence the
// primary had assigned when the frame was sent, so the replica advertises
// head−seq as its lag.
func AppendReplWrite(dst []byte, handle uint32, seq, head uint64, kind byte, keys []uint64, vals []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, handle)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, head)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return append(dst, vals...)
}

// DecodeReplWrite parses a REPLWRITE request (after DecodeHandle),
// appending keys into buf like DecodeKeys; vals aliases p and is empty for
// ReplDelete.
func DecodeReplWrite(p []byte, valueSize int, buf []uint64) (seq, head uint64, kind byte, keys []uint64, vals []byte, err error) {
	if len(p) < 21 {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: REPLWRITE wants >= 21 bytes, got %d", ErrShortPayload, len(p))
	}
	seq = binary.LittleEndian.Uint64(p)
	head = binary.LittleEndian.Uint64(p[8:])
	kind = p[16]
	if kind != ReplPut && kind != ReplDelete {
		return 0, 0, 0, nil, nil, fmt.Errorf("wire: unknown REPLWRITE kind %d", kind)
	}
	n := int(binary.LittleEndian.Uint32(p[17:]))
	if n > MaxBatchKeys {
		return 0, 0, 0, nil, nil, fmt.Errorf("wire: batch of %d keys exceeds limit %d", n, MaxBatchKeys)
	}
	vs := 0
	if kind == ReplPut {
		vs = valueSize
	}
	want := 21 + n*(8+vs)
	if len(p) != want {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w: %d-key REPLWRITE wants %d bytes, got %d", ErrShortPayload, n, want, len(p))
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, binary.LittleEndian.Uint64(p[21+8*i:]))
	}
	return seq, head, kind, buf, p[21+8*n:], nil
}
