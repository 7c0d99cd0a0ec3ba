// Package wire defines the framed binary protocol spoken between
// mlkv-server and its clients. Every message — request or response — is one
// frame:
//
//	uint32  length   (bytes that follow: corrID + op + payload, so >= 5)
//	uint32  corrID   (correlation id, echoed verbatim in the response)
//	uint8   op       (request opcode, or RespOK/RespErr in a response)
//	[]byte  payload  (op-specific, see payload.go)
//
// All integers are little-endian. Correlation IDs let a client pipeline
// many requests on one connection and match responses as they arrive; the
// server today answers in request order, but clients must not rely on
// that. Frames longer than the reader's limit are refused before the body
// is read, so a corrupt or hostile length prefix cannot force a giant
// allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op identifies a frame type.
type Op uint8

// Request opcodes.
const (
	// OpHello opens a connection: the client announces its protocol
	// Version and learns the store's value size, shard count, and name.
	OpHello Op = 1 + iota
	// OpGet reads one key. No server serves it since v7 (a client's single
	// key is a one-key GETBATCH); only the benchmark's wire rung still
	// encodes it.
	OpGet
	// OpPut upserts one key. No server serves it since v7 (a one-key
	// PUTBATCH replaces it); only the benchmark's wire rung still encodes
	// it.
	OpPut
	// OpDelete removes one key.
	OpDelete
	// OpGetBatch reads up to MaxBatchKeys keys in one frame; the server
	// fans the batch into the sharded store as one batched operation.
	OpGetBatch
	// OpPutBatch upserts up to MaxBatchKeys keys in one frame.
	OpPutBatch
	// OpLookahead asks the store to prefetch keys toward memory (the
	// network face of MLKV's look-ahead interface).
	OpLookahead
	// OpCheckpoint makes the store durable.
	OpCheckpoint
	// OpStats fetches one model's counters. The response payload is
	// stats.Counters.Encode: the counter table (internal/stats) owns the
	// slot order, and a Version bump accompanies any change to it.
	OpStats
	// OpPeek read one key without consistency effects. No server serves it
	// since v7 (a one-key PEEKBATCH replaces it), and no client encodes it;
	// the constant keeps the later ops' values.
	OpPeek
	// OpOpen creates or looks up a named model on the server — the wire
	// face of the paper's Open(model_id, dim, staleness_bound) — and
	// returns the model handle every subsequent data frame carries.
	OpOpen
	// OpAttach registers one client session on a model for this
	// connection. The server lazily opens its engine session on the first
	// attach and counts attaches minus detaches as the model's active
	// remote sessions, so drain tracking stays truthful.
	OpAttach
	// OpDetach releases one client session (the counterpart of OpAttach).
	// The engine session closes when the connection's last attach detaches.
	OpDetach
	// OpPeekBatch reads up to MaxBatchKeys keys in one frame with PEEK
	// semantics: no vector-clock participation, no copy-to-tail, never
	// blocks on a staleness bound. The cluster router sends it for the
	// batch reads it routes to a replica, which holds no clock, and for a
	// routed PeekBatch. Request payload is AppendKeys (handle|n|keys — no
	// wait budget, peeks cannot block); the response reuses the GETBATCH
	// layout.
	OpPeekBatch
	// OpClusterMap fetches the server's cluster topology: an epoch-numbered
	// map of node id → address → hash ranges → role (internal/cluster's
	// codec). Empty request payload. A server not running in cluster mode
	// answers RespOK with an empty payload — so a client may probe any
	// server with it to discover whether it fronts a cluster without the
	// probe counting as an error.
	OpClusterMap
	// OpClusterJoin announces a new node to a cluster member: the request
	// carries the joining node encoded as a single-node cluster map (epoch
	// ignored), the response carries the merged map at its new epoch. The
	// joiner then pushes that map to the remaining members with CLUSTERSYNC.
	OpClusterJoin
	// OpClusterSync gossips a cluster map between nodes: the request carries
	// an encoded map, the receiver adopts it if its epoch is newer than the
	// receiver's own, and the response carries the receiver's current map
	// (so a pusher with a stale map learns the newer one).
	OpClusterSync
	// OpReplWrite is the primary→replica replication frame: a batch of
	// upserts or deletes applied verbatim on the replica, stamped with the
	// stream's sequence number and the primary's head so the replica can
	// advertise its lag (head − seq) in the STATS ReplicaLag field. It
	// bypasses cluster ownership checks — it is how a replica legitimately
	// receives writes for ranges it does not own.
	OpReplWrite
	// OpClusterPing is the peer heartbeat: the request carries the sender's
	// health record (map epoch, replication watermark, and the peers it
	// currently suspects — internal/cluster's codec), the response carries
	// the receiver's. Both sides feed their failure detectors from the
	// exchange, so suspicion gossip rides the heartbeats themselves and
	// confirming a death needs no extra round trips. A server not running a
	// detector (or predating the op) answers RespErr and keeps the
	// connection usable.
	OpClusterPing
	// OpClusterLeave announces a planned departure: the payload names the
	// node shutting down, and receivers treat it as confirmed-dead
	// immediately — a graceful restart skips the suspicion timeout that an
	// actual crash must wait out.
	OpClusterLeave
	// OpApply is the embedding-update primitive (the paper's storage-side
	// Rmw, Fig. 4 step 8): the server applies v ← v − lr·grad to one key
	// inside a single engine RMW and answers whether the key existed. An
	// absent key is left absent (found=0) — the server knows no initializer,
	// so the client runs its first-touch path. A gradient step is not
	// idempotent: a client re-sends an APPLY only when it provably did not
	// run (NOT_OWNER, or a failure before the frame was written).
	OpApply
)

// Response opcodes.
const (
	// RespOK carries the op-specific response payload.
	RespOK Op = 0x80
	// RespErr carries a UTF-8 error message; the connection stays usable.
	RespErr Op = 0x81
	// RespNotOwner rejects a data op whose key range belongs to another
	// cluster node. The payload is the server's current encoded cluster map,
	// so the client refreshes its topology and re-routes in one round trip
	// instead of probing for the owner. The connection stays usable.
	RespNotOwner Op = 0x82
)

// String names the opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "HELLO"
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpGetBatch:
		return "GETBATCH"
	case OpPutBatch:
		return "PUTBATCH"
	case OpLookahead:
		return "LOOKAHEAD"
	case OpCheckpoint:
		return "CHECKPOINT"
	case OpStats:
		return "STATS"
	case OpPeek:
		return "PEEK"
	case OpOpen:
		return "OPEN"
	case OpAttach:
		return "ATTACH"
	case OpDetach:
		return "DETACH"
	case OpPeekBatch:
		return "PEEKBATCH"
	case OpClusterMap:
		return "CLUSTERMAP"
	case OpClusterJoin:
		return "CLUSTERJOIN"
	case OpClusterSync:
		return "CLUSTERSYNC"
	case OpReplWrite:
		return "REPLWRITE"
	case OpClusterPing:
		return "CLUSTERPING"
	case OpClusterLeave:
		return "CLUSTERLEAVE"
	case OpApply:
		return "APPLY"
	case RespOK:
		return "OK"
	case RespErr:
		return "ERR"
	case RespNotOwner:
		return "NOTOWNER"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Version is the protocol revision carried in HELLO. The two sides must
// match exactly — a server answers any other version with a clear RespErr
// and closes the connection rather than guess at payload layouts — so any
// change to a payload layout, or to the order or length of the STATS
// counter table (internal/stats), bumps it.
const Version = 7

const (
	// minLength is the smallest legal length field: corrID + op.
	minLength = 5
	// headerSize is the fixed frame prefix: length + corrID + op.
	headerSize = 9
)

// DefaultMaxFrame bounds the length field when the caller passes 0 to
// ReadFrame: 16 MiB, comfortably above the largest legal batch frame.
const DefaultMaxFrame = 16 << 20

// MaxBatchKeys bounds keys per GETBATCH/PUTBATCH/LOOKAHEAD frame so the
// response (one found byte plus one value per key) stays well under
// DefaultMaxFrame at the largest value sizes the benchmarks use.
const MaxBatchKeys = 32768

// Protocol errors.
var (
	// ErrFrameTooLarge reports a length prefix beyond the reader's limit.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrMalformed reports a length prefix too small to hold a header.
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrShortPayload reports a payload shorter than its op requires.
	ErrShortPayload = errors.New("wire: payload truncated")
)

// Frame is one decoded frame. Payload aliases the buffer ReadFrame
// allocated and is valid until the caller discards it.
type Frame struct {
	CorrID  uint32
	Op      Op
	Payload []byte
}

// WriteFrame writes one frame. The caller batches frames by passing a
// buffered writer and flushing when its pipeline drains. The header
// staging escapes to the heap through the io.Writer interface, so
// per-frame writers (connection loops) should hold a FrameWriter instead.
func WriteFrame(w io.Writer, corrID uint32, op Op, payload []byte) error {
	fw := FrameWriter{w: w}
	return fw.Write(corrID, op, payload)
}

// FrameWriter writes frames to one writer with a reusable header buffer,
// so a connection's write path allocates nothing per frame.
type FrameWriter struct {
	w   io.Writer
	hdr [headerSize]byte
}

// NewFrameWriter wraps w (normally a bufio.Writer owned by a connection).
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Write writes one frame (see WriteFrame).
func (fw *FrameWriter) Write(corrID uint32, op Op, payload []byte) error {
	binary.LittleEndian.PutUint32(fw.hdr[0:], uint32(minLength+len(payload)))
	binary.LittleEndian.PutUint32(fw.hdr[4:], corrID)
	fw.hdr[8] = byte(op)
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := fw.w.Write(payload)
	return err
}

// ReadFrame reads one frame, refusing length fields above maxFrame
// (DefaultMaxFrame if 0) before allocating the body. A clean EOF between
// frames returns io.EOF; EOF inside a frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxFrame uint32) (Frame, error) {
	f, _, err := ReadFrameBuf(r, maxFrame, nil)
	return f, err
}

// ReadFrameBuf is ReadFrame with a caller-owned body buffer: the frame is
// read into buf when it fits (growing it otherwise) and the possibly
// grown buffer is returned for the next call, so a connection loop reads
// every frame with zero steady-state allocation. The returned
// Frame.Payload aliases the buffer and is valid only until the next use
// of it.
func ReadFrameBuf(r io.Reader, maxFrame uint32, buf []byte) (Frame, []byte, error) {
	// The length prefix is read into buf too (the body then overwrites it):
	// a local array would escape through the io.Reader, once per frame.
	if cap(buf) < minLength {
		buf = make([]byte, minLength)
	}
	lenBuf := buf[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, buf, io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(lenBuf)
	if n < minLength {
		return Frame{}, buf, fmt.Errorf("%w: length %d < %d", ErrMalformed, n, minLength)
	}
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	if n > maxFrame {
		return Frame{}, buf, fmt.Errorf("%w: length %d > limit %d", ErrFrameTooLarge, n, maxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, buf, io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	return Frame{
		CorrID:  binary.LittleEndian.Uint32(body[0:]),
		Op:      Op(body[4]),
		Payload: body[minLength:],
	}, buf, nil
}
