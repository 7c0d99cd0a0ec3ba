package cluster

import "context"

// Windows onto unexported routing state for the external routing suite.
const (
	OwnerRetryBudget = ownerRetryBudget
	LagRefresh       = lagRefresh
)

// ReplicaAdmissible exposes the replica-admissibility predicate.
func (m *RModel) ReplicaAdmissible(ctx context.Context, bound int64, rep *Node) bool {
	return m.replicaAdmissible(ctx, bound, rep)
}
