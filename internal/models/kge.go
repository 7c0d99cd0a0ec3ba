package models

import "github.com/llm-db/mlkv-go/internal/tensor"

// KGEKind selects the knowledge-graph-embedding scoring function.
type KGEKind int

const (
	// DistMult scores ⟨h, r, t⟩ = Σ h_i·r_i·t_i (Yang et al., ICLR'15).
	DistMult KGEKind = iota
	// ComplEx scores Re(Σ h_i·r_i·conj(t_i)) over C^{d/2} embeddings stored
	// as [real ‖ imag] (Trouillon et al., ICML'16).
	ComplEx
)

// String names the scoring function for benchmark output.
func (k KGEKind) String() string {
	if k == ComplEx {
		return "ComplEx"
	}
	return "DistMult"
}

// KGE is a knowledge-graph embedding scorer. It has no dense parameters;
// the entire model state is the entity and relation embedding tables.
type KGE struct {
	Kind KGEKind
	Dim  int // storage dimension (ComplEx uses Dim/2 complex pairs)
}

// NewKGE builds a scorer. For ComplEx, dim must be even.
func NewKGE(kind KGEKind, dim int) *KGE {
	if kind == ComplEx && dim%2 != 0 {
		panic("models: ComplEx dimension must be even")
	}
	return &KGE{Kind: kind, Dim: dim}
}

// Score computes the triple score.
func (m *KGE) Score(h, r, t []float32) float32 {
	switch m.Kind {
	case DistMult:
		var s float32
		for i := range h {
			s += h[i] * r[i] * t[i]
		}
		return s
	default: // ComplEx
		k := m.Dim / 2
		hr, hi := h[:k], h[k:]
		rr, ri := r[:k], r[k:]
		tr, ti := t[:k], t[k:]
		var s float32
		for i := 0; i < k; i++ {
			s += (hr[i]*rr[i]-hi[i]*ri[i])*tr[i] + (hr[i]*ri[i]+hi[i]*rr[i])*ti[i]
		}
		return s
	}
}

// Grad accumulates dScore × ∂score/∂{h,r,t} into dh, dr, dt.
func (m *KGE) Grad(h, r, t []float32, dScore float32, dh, dr, dt []float32) {
	switch m.Kind {
	case DistMult:
		for i := range h {
			dh[i] += dScore * r[i] * t[i]
			dr[i] += dScore * h[i] * t[i]
			dt[i] += dScore * h[i] * r[i]
		}
	default: // ComplEx
		k := m.Dim / 2
		hr, hi := h[:k], h[k:]
		rr, ri := r[:k], r[k:]
		tr, ti := t[:k], t[k:]
		for i := 0; i < k; i++ {
			// s_i = (hr·rr − hi·ri)·tr + (hr·ri + hi·rr)·ti
			dh[i] += dScore * (rr[i]*tr[i] + ri[i]*ti[i])
			dh[k+i] += dScore * (-ri[i]*tr[i] + rr[i]*ti[i])
			dr[i] += dScore * (hr[i]*tr[i] + hi[i]*ti[i])
			dr[k+i] += dScore * (-hi[i]*tr[i] + hr[i]*ti[i])
			dt[i] += dScore * (hr[i]*rr[i] - hi[i]*ri[i])
			dt[k+i] += dScore * (hr[i]*ri[i] + hi[i]*rr[i])
		}
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
