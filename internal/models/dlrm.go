// Package models implements the embedding models the paper evaluates:
// DLRMs (FFNN and DCN) for click-through-rate prediction, the DistMult
// knowledge-graph embedding scorer for link prediction, and GraphSAGE for
// node classification. Each model consumes
// embeddings fetched from storage and produces gradients with respect to
// them, which the training pipelines write back through MLKV's Put/RMW.
package models

import (
	"fmt"

	"github.com/llm-db/mlkv-go/internal/nn"
	"github.com/llm-db/mlkv-go/internal/util"
)

// DLRMKind selects the dense architecture.
type DLRMKind int

const (
	// FFNN is a plain fully connected tower over [dense ‖ embeddings].
	FFNN DLRMKind = iota
	// DCN adds a cross network in parallel with the deep tower.
	DCN
)

// String names the interaction variant for benchmark output.
func (k DLRMKind) String() string {
	if k == DCN {
		return "DCN"
	}
	return "FFNN"
}

// DLRM is a deep-learning recommendation model: m categorical fields embed
// to Dim-vectors (fetched from storage), concatenated with DenseDim dense
// features, and fed to the dense network.
type DLRM struct {
	Kind     DLRMKind
	Fields   int
	Dim      int
	DenseDim int

	ffnn  *nn.MLP        // FFNN tower (Kind == FFNN)
	cross *nn.CrossStack // DCN pieces (Kind == DCN)
	deep  *nn.MLP
	comb  *nn.MLP
}

// NewDLRM builds a DLRM. hidden configures the tower widths.
func NewDLRM(kind DLRMKind, fields, dim, denseDim int, hidden []int, seed uint64) *DLRM {
	in := denseDim + fields*dim
	m := &DLRM{Kind: kind, Fields: fields, Dim: dim, DenseDim: denseDim}
	switch kind {
	case FFNN:
		sizes := append([]int{in}, hidden...)
		sizes = append(sizes, 1)
		m.ffnn = nn.NewMLP(sizes, seed)
	case DCN:
		m.cross = nn.NewCrossStack(in, 3, seed)
		deepSizes := append([]int{in}, hidden...)
		m.deep = nn.NewMLP(deepSizes, seed+1)
		m.comb = nn.NewMLP([]int{in + hidden[len(hidden)-1], 1}, seed+2)
	}
	return m
}

// InputDim returns the dense-network input width.
func (m *DLRM) InputDim() int { return m.DenseDim + m.Fields*m.Dim }

// DLRMWorker holds one goroutine's activations and gradient accumulators
// for minibatches of samples, one input row per sample.
type DLRMWorker struct {
	m     *DLRM
	dEmb  []float32 // n × Fields·Dim
	ffnn  *nn.MLPWorker
	cross *nn.CrossWorker
	deep  *nn.MLPWorker
	comb  *nn.MLPWorker
	hid   int       // DCN: deep-tower output width
	cat   []float32 // DCN: n rows of [crossOut ‖ deepOut]
	dxc   []float32 // DCN: the cross half of comb's input gradient, n×InputDim
	dxd   []float32 // DCN: the deep half, n×hid
}

// NewWorker allocates a worker context.
func (m *DLRM) NewWorker() *DLRMWorker {
	w := &DLRMWorker{m: m}
	switch m.Kind {
	case FFNN:
		w.ffnn = m.ffnn.NewWorker()
	case DCN:
		w.cross = m.cross.NewWorker()
		w.deep = m.deep.NewWorker()
		w.comb = m.comb.NewWorker()
		w.hid = m.deep.Sizes[len(m.deep.Sizes)-1]
	}
	return w
}

// Forward computes the CTR logits of n samples. x holds one row of
// InputDim floats per sample: its DenseDim dense features, then its Fields
// embeddings (Fields×Dim). The n logits are worker-owned and valid until
// the next Forward.
func (w *DLRMWorker) Forward(x []float32) ([]float32, error) {
	m := w.m
	in := m.InputDim()
	if len(x) == 0 || len(x)%in != 0 {
		return nil, fmt.Errorf("models: DLRM input of %d floats is not whole rows of %d", len(x), in)
	}
	if m.Kind == FFNN {
		return w.ffnn.Forward(x), nil
	}
	n, width := len(x)/in, in+w.hid
	co := w.cross.Forward(x)
	do := w.deep.Forward(x)
	w.cat = util.Grow(w.cat, n*width)
	for s := 0; s < n; s++ {
		row := w.cat[s*width : (s+1)*width]
		copy(row, co[s*in:(s+1)*in])
		copy(row[in:], do[s*w.hid:(s+1)*w.hid])
	}
	return w.comb.Forward(w.cat), nil
}

// Backward accumulates dense-parameter gradients for the rows of the last
// Forward given each row's dLoss/dLogit and returns the gradient w.r.t. the
// embeddings, one row of Fields×Dim per sample (worker-owned).
func (w *DLRMWorker) Backward(dLogits []float32) []float32 {
	m := w.m
	n, in, e := len(dLogits), m.InputDim(), m.Fields*m.Dim
	w.dEmb = util.Grow(w.dEmb, n*e)
	if m.Kind == FFNN {
		dx := w.ffnn.Backward(dLogits)
		for s := 0; s < n; s++ {
			copy(w.dEmb[s*e:(s+1)*e], dx[s*in+m.DenseDim:(s+1)*in])
		}
		return w.dEmb
	}
	width := in + w.hid
	dcat := w.comb.Backward(dLogits)
	w.dxc = util.Grow(w.dxc, n*in)
	w.dxd = util.Grow(w.dxd, n*w.hid)
	for s := 0; s < n; s++ {
		row := dcat[s*width : (s+1)*width]
		copy(w.dxc[s*in:(s+1)*in], row[:in])
		copy(w.dxd[s*w.hid:(s+1)*w.hid], row[in:])
	}
	dxc := w.cross.Backward(w.dxc)
	dxd := w.deep.Backward(w.dxd)
	for s := 0; s < n; s++ {
		for i := 0; i < e; i++ {
			j := s*in + m.DenseDim + i
			w.dEmb[s*e+i] = dxc[j] + dxd[j]
		}
	}
	return w.dEmb
}

// Apply folds accumulated dense gradients into the shared parameters.
func (w *DLRMWorker) Apply(lr float32) {
	switch w.m.Kind {
	case FFNN:
		w.ffnn.Apply(lr)
	default:
		w.comb.Apply(lr)
		w.cross.Apply(lr)
		w.deep.Apply(lr)
	}
}
