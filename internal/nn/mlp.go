// Package nn implements the dense neural-network substrate: multi-layer
// perceptrons and DCN cross layers with hand-written backpropagation, plus
// binary-cross-entropy and softmax losses. Weights live in a shared Params
// set guarded by an RWMutex — workers run forward/backward under the read
// lock and apply accumulated gradients under the write lock, mirroring the
// synchronized dense-parameter updates that DL frameworks (DDP/AllReduce)
// perform while MLKV handles the sparse embeddings asynchronously.
package nn

import (
	"fmt"
	"sync"

	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

// MLP is a fully connected network with ReLU hidden activations and a
// linear output layer.
type MLP struct {
	Mu    sync.RWMutex
	Sizes []int       // e.g. [in, 64, 32, 1]
	W     [][]float32 // W[l] is Sizes[l+1] × Sizes[l], row-major
	B     [][]float32
}

// NewMLP builds an MLP with He-style uniform initialization.
func NewMLP(sizes []int, seed uint64) *MLP {
	r := util.NewRNG(seed)
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float32, in*out)
		scale := float32(2.44948974 / float32(in)) // ~sqrt(6/in)
		for i := range w {
			w[i] = (r.Float32()*2 - 1) * scale
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float32, out))
	}
	return m
}

// MLPWorker holds one goroutine's activations and gradient accumulators.
// Its buffers hold as many rows as the largest minibatch it has run, so a
// steady stream of equal minibatches allocates nothing.
type MLPWorker struct {
	m    *MLP
	rows int         // rows of the last Forward
	acts [][]float32 // acts[0] = input rows, acts[l+1] = layer l output rows
	dx   [][]float32 // dx[l] = gradient rows w.r.t. acts[l]
	dW   [][]float32
	dB   [][]float32
	n    int // accumulated examples
}

// NewWorker allocates a worker context.
func (m *MLP) NewWorker() *MLPWorker {
	w := &MLPWorker{m: m, acts: make([][]float32, len(m.Sizes)), dx: make([][]float32, len(m.W))}
	for l := range m.W {
		w.dW = append(w.dW, make([]float32, len(m.W[l])))
		w.dB = append(w.dB, make([]float32, len(m.B[l])))
	}
	return w
}

// rowsOf returns how many rows of width x holds.
func rowsOf(x []float32, width int) int {
	if len(x)%width != 0 {
		panic(fmt.Sprintf("nn: %d values are not whole rows of %d", len(x), width))
	}
	return len(x) / width
}

// Forward runs the network on the rows of x (n rows of Sizes[0]; one row is
// a single sample) and returns the n output rows (n×Sizes[last]), owned by
// the worker. Each layer is one pass over all n rows.
func (w *MLPWorker) Forward(x []float32) []float32 {
	m := w.m
	n := rowsOf(x, m.Sizes[0])
	m.Mu.RLock()
	defer m.Mu.RUnlock()
	w.rows = n
	w.acts[0] = append(w.acts[0][:0], x...)
	for l := range m.W {
		in, out := m.Sizes[l], m.Sizes[l+1]
		y := util.Grow(w.acts[l+1], n*out)
		w.acts[l+1] = y
		tensor.MatVecRows(m.W[l], out, in, w.acts[l], n, y)
		for s := 0; s < n; s++ {
			row := y[s*out : (s+1)*out]
			for i, b := range m.B[l] {
				row[i] += b
			}
		}
		if l != len(m.W)-1 {
			tensor.ReLU(y)
		}
	}
	return w.acts[len(m.W)]
}

// Backward accumulates gradients for the rows of the last Forward call
// given dOut (n rows of the loss gradient w.r.t. each output row) and
// returns the gradient w.r.t. each input row (n×Sizes[0], owned by the
// worker, valid until the next call). The rows fold into the weight and
// bias gradients in order, so n rows accumulate exactly what n one-row
// calls would, bit for bit.
func (w *MLPWorker) Backward(dOut []float32) []float32 {
	m := w.m
	L := len(m.W)
	n := w.rows
	if len(dOut) != n*m.Sizes[L] {
		panic(fmt.Sprintf("nn: %d output gradients for %d rows of %d", len(dOut), n, m.Sizes[L]))
	}
	m.Mu.RLock()
	defer m.Mu.RUnlock()
	dy := dOut // read only: the output layer has no ReLU to mask
	for l := L - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if l != L-1 {
			tensor.ReLUGrad(w.acts[l+1], dy)
		}
		tensor.OuterAccRows(w.dW[l], out, in, dy, w.acts[l], n)
		for s := 0; s < n; s++ {
			tensor.Axpy(1, dy[s*out:(s+1)*out], w.dB[l])
		}
		w.dx[l] = util.Grow(w.dx[l], n*in)
		tensor.MatVecTRows(m.W[l], out, in, dy, n, w.dx[l])
		dy = w.dx[l]
	}
	w.n += n
	return w.dx[0]
}

// Apply folds the worker's accumulated gradients into the shared weights
// with SGD (mean gradient × lr) and clears the accumulators.
func (w *MLPWorker) Apply(lr float32) {
	if w.n == 0 {
		return
	}
	m := w.m
	scale := -lr / float32(w.n)
	m.Mu.Lock()
	for l := range m.W {
		tensor.Axpy(scale, w.dW[l], m.W[l])
		tensor.Axpy(scale, w.dB[l], m.B[l])
		tensor.Zero(w.dW[l])
		tensor.Zero(w.dB[l])
	}
	m.Mu.Unlock()
	w.n = 0
}

// SoftmaxCE returns the cross-entropy loss and writes dLoss/dLogits into
// dLogits for an integer class label.
func SoftmaxCE(logits []float32, label int, probs, dLogits []float32) float32 {
	tensor.Softmax(logits, probs)
	eps := float32(1e-7)
	loss := -logf(probs[label] + eps)
	for i := range probs {
		dLogits[i] = probs[i]
	}
	dLogits[label] -= 1
	return loss
}

func logf(x float32) float32 {
	return float32(log64(float64(x)))
}
