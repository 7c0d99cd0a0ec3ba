package cluster

import (
	"context"

	"github.com/llm-db/mlkv-go/internal/client"
)

// Windows onto unexported routing state for the external routing suite.
const (
	OwnerRetryBudget = ownerRetryBudget
	LagRefresh       = lagRefresh
)

// ReplicaAdmissible exposes the replica-admissibility predicate.
func (m *RModel) ReplicaAdmissible(ctx context.Context, bound int64, rep *Node) bool {
	return m.replicaAdmissible(ctx, bound, rep)
}

// Pool exposes the per-node pool lookup (dialing on first contact).
func (r *Router) Pool(ctx context.Context, addr string) (*client.Client, error) {
	return r.pool(ctx, addr)
}

// TransportFailure exposes the router's retry-and-fail-over predicate.
func TransportFailure(err error) bool { return transportFailure(err) }

// PeerLeft reports whether this node's detector holds a leave tombstone
// for id.
func (st *State) PeerLeft(id string) bool {
	d := st.det.Load()
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ph := d.peers[id]
	return ph != nil && ph.left
}
