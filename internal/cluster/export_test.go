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
func (r *Router) Pool(addr string) (*client.Client, error) { return r.pool(addr) }
