package models

import "github.com/llm-db/mlkv-go/internal/tensor"

// KGE is a DistMult knowledge-graph embedding scorer (Yang et al.,
// ICLR'15): ⟨h, r, t⟩ = Σ h_i·r_i·t_i. It has no dense parameters; the
// entire model state is the entity and relation embedding tables.
type KGE struct {
	Dim int
}

// NewKGE builds a scorer over dim-wide embeddings.
func NewKGE(dim int) *KGE { return &KGE{Dim: dim} }

// Score computes the triple score.
func (m *KGE) Score(h, r, t []float32) float32 {
	var s float32
	for i := range h {
		s += h[i] * r[i] * t[i]
	}
	return s
}

// Grad accumulates dScore × ∂score/∂{h,r,t} into dh, dr, dt.
func (m *KGE) Grad(h, r, t []float32, dScore float32, dh, dr, dt []float32) {
	for i := range h {
		dh[i] += dScore * r[i] * t[i]
		dr[i] += dScore * h[i] * t[i]
		dt[i] += dScore * h[i] * r[i]
	}
}

// TripleLoss computes the logistic loss for one positive triple against
// negTails corrupted tails, accumulating gradients into the provided
// buffers. negEmb[i] is the i-th negative tail embedding; dNeg[i] receives
// its gradient. Returns the loss.
func (m *KGE) TripleLoss(h, r, t []float32, negEmb [][]float32, dh, dr, dt []float32, dNeg [][]float32) float32 {
	sPos := m.Score(h, r, t)
	// L = softplus(−s⁺) + Σ softplus(s⁻);  ∂L/∂s⁺ = −σ(−s⁺), ∂L/∂s⁻ = σ(s⁻).
	loss := softplus(-sPos)
	m.Grad(h, r, t, -tensor.Sigmoid(-sPos), dh, dr, dt)
	for i, neg := range negEmb {
		sNeg := m.Score(h, r, neg)
		loss += softplus(sNeg)
		m.Grad(h, r, neg, tensor.Sigmoid(sNeg), dh, dr, dNeg[i])
	}
	return loss
}

// HitsAtK evaluates link prediction: the rank of the true tail among the
// candidates (true tail first, then corrupted tails); returns 1 if the true
// tail ranks in the top k.
func (m *KGE) HitsAtK(h, r, t []float32, negs [][]float32, k int) int {
	sTrue := m.Score(h, r, t)
	rank := 1
	for _, neg := range negs {
		if m.Score(h, r, neg) > sTrue {
			rank++
		}
	}
	if rank <= k {
		return 1
	}
	return 0
}

func softplus(x float32) float32 {
	// log(1 + e^x), stable for large |x|.
	if x > 15 {
		return x
	}
	if x < -15 {
		return 0
	}
	return logf32(1 + expf32(x))
}
