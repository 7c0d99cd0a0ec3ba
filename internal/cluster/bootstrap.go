package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/llm-db/mlkv-go/internal/wire"
)

// Raw node-to-node conversations: joining, gossiping maps, and streaming
// replication all speak the ordinary wire protocol over a plain synchronous
// connection — no pipelining, no pooling — because none of them are on a
// client's latency path.

// RemoteError is an application-level refusal (RespErr) from a peer node,
// as opposed to a transport failure: the peer is alive and the connection
// usable, it just said no.
type RemoteError struct{ Msg string }

// Error returns the peer's message.
func (e *RemoteError) Error() string { return e.Msg }

// rawConn is one synchronous wire connection to a peer node.
type rawConn struct {
	c    net.Conn
	br   *bufio.Reader
	fw   *wire.FrameWriter
	bw   *bufio.Writer
	corr uint32
	buf  []byte
}

// dialRaw connects and completes the HELLO exchange.
func dialRaw(addr string, timeout time.Duration) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(c)
	rc := &rawConn{c: c, br: bufio.NewReader(c), bw: bw, fw: wire.NewFrameWriter(bw)}
	if _, err := rc.roundTrip(wire.OpHello, wire.EncodeHello(), timeout); err != nil {
		c.Close()
		return nil, err
	}
	return rc, nil
}

// roundTrip sends one frame and reads its response. The returned payload
// aliases the connection's read buffer and is valid until the next call.
// A RespErr answer comes back as *RemoteError.
func (rc *rawConn) roundTrip(op wire.Op, payload []byte, timeout time.Duration) ([]byte, error) {
	rc.corr++
	if timeout > 0 {
		rc.c.SetDeadline(time.Now().Add(timeout))
		defer rc.c.SetDeadline(time.Time{})
	}
	if err := rc.fw.Write(rc.corr, op, payload); err != nil {
		return nil, err
	}
	if err := rc.bw.Flush(); err != nil {
		return nil, err
	}
	f, buf, err := wire.ReadFrameBuf(rc.br, 0, rc.buf)
	rc.buf = buf
	if err != nil {
		return nil, err
	}
	if f.CorrID != rc.corr {
		return nil, fmt.Errorf("cluster: peer answered correlation id %d, expected %d", f.CorrID, rc.corr)
	}
	switch f.Op {
	case wire.RespOK:
		return f.Payload, nil
	case wire.RespErr:
		return nil, &RemoteError{Msg: string(f.Payload)}
	}
	return nil, fmt.Errorf("cluster: peer answered unexpected op %s", f.Op)
}

func (rc *rawConn) close() { rc.c.Close() }

// JoinCluster announces n to the seed node and returns the merged map at
// its new epoch. The caller then gossips that map to the remaining members
// with PushMap so they learn the joiner without waiting for a redirect.
func JoinCluster(seed string, n Node, timeout time.Duration) (*Map, error) {
	rc, err := dialRaw(seed, timeout)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	p, err := rc.roundTrip(wire.OpClusterJoin, EncodeNode(n), timeout)
	if err != nil {
		return nil, err
	}
	return DecodeMap(p)
}

// PushMap gossips m to one node and returns that node's current map after
// the exchange (m itself if adopted, something newer if the peer was
// ahead). Transport errors are returned; a peer refusing the sync is too.
func PushMap(addr string, m *Map, timeout time.Duration) (*Map, error) {
	rc, err := dialRaw(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer rc.close()
	p, err := rc.roundTrip(wire.OpClusterSync, EncodeMap(m), timeout)
	if err != nil {
		return nil, err
	}
	return DecodeMap(p)
}

// IsRemoteRefusal reports whether err is a peer's application-level
// refusal rather than a transport failure.
func IsRemoteRefusal(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
