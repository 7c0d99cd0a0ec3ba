package cluster

import (
	"context"
	"sync"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// Node-to-node calls: joining, gossiping maps and announcing a leave are
// one frame each to one peer, sent through internal/client like every
// other frame — the detector's heartbeats and the replication stream hold
// their own pools of the same client. None of them is on a client's
// latency path. A peer's refusal (RespErr) is a *client.ServerError.

// call sends one frame to addr on a fresh one-connection pool and returns
// the answer's payload. The connect, the HELLO and the round trip share
// one timeout.
func call(addr string, op wire.Op, payload []byte, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c, err := client.Dial(ctx, addr, client.Options{Conns: 1, DialTimeout: timeout})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Call(ctx, op, payload)
}

// JoinCluster announces n to the seed node and returns the merged map at
// its new epoch. The caller then gossips that map to the remaining members
// with PushMap so they learn the joiner without waiting for a redirect.
func JoinCluster(seed string, n Node, timeout time.Duration) (*Map, error) {
	p, err := call(seed, wire.OpClusterJoin, EncodeNode(n), timeout)
	if err != nil {
		return nil, err
	}
	return DecodeMap(p)
}

// PushMap gossips m to one node and returns that node's current map after
// the exchange (m itself if adopted, something newer if the peer was
// ahead). Transport errors are returned; a peer refusing the sync is too.
func PushMap(addr string, m *Map, timeout time.Duration) (*Map, error) {
	p, err := call(addr, wire.OpClusterSync, EncodeMap(m), timeout)
	if err != nil {
		return nil, err
	}
	return DecodeMap(p)
}

// AnnounceLeave tells every other member of m that self is shutting down
// gracefully, so peers skip the suspicion timeout. The peers are told in
// parallel, so the whole announcement costs at most one timeout. Best
// effort: an unreachable peer will fall back to detecting the death the
// slow way.
func AnnounceLeave(m *Map, self string, timeout time.Duration) {
	payload := encodeLeave(self)
	var wg sync.WaitGroup
	for _, n := range m.Nodes {
		if n.ID == self {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = call(n.Addr, wire.OpClusterLeave, payload, timeout)
		}()
	}
	wg.Wait()
}
