package nn

import (
	"fmt"
	"math"
	"sync"

	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

func log64(x float64) float64 { return math.Log(x) }

// CrossStack implements DCN's cross network (Wang et al., ADKDD'17):
//
//	x_{l+1} = x_0 · (w_lᵀ x_l) + b_l + x_l
//
// which models bounded-degree feature interactions explicitly. Combined
// with an MLP tower it forms the paper's "DCN" DLRM variant.
type CrossStack struct {
	Mu     sync.RWMutex
	Dim    int
	Layers int
	W      [][]float32 // one weight vector per layer
	B      [][]float32
}

// NewCrossStack builds a cross network for inputs of the given dimension.
func NewCrossStack(dim, layers int, seed uint64) *CrossStack {
	r := util.NewRNG(seed)
	c := &CrossStack{Dim: dim, Layers: layers}
	for l := 0; l < layers; l++ {
		w := make([]float32, dim)
		scale := float32(1.0 / float32(dim))
		for i := range w {
			w[i] = (r.Float32()*2 - 1) * scale
		}
		c.W = append(c.W, w)
		c.B = append(c.B, make([]float32, dim))
	}
	return c
}

// CrossWorker holds per-goroutine activations and gradient accumulators,
// sized like MLPWorker's for the largest minibatch run so far.
type CrossWorker struct {
	c    *CrossStack
	rows int         // rows of the last Forward
	xs   [][]float32 // xs[l] = input rows of layer l; xs[Layers] = output rows
	dot  []float32   // w_l · x_l per row and layer (rows × Layers)
	dW   [][]float32
	dB   [][]float32
	dx   []float32 // dLoss/dx0 rows
	g    []float32 // one row's running dLoss/dx_l
	n    int
}

// NewWorker allocates a worker context.
func (c *CrossStack) NewWorker() *CrossWorker {
	w := &CrossWorker{c: c, xs: make([][]float32, c.Layers+1), g: make([]float32, c.Dim)}
	for l := 0; l < c.Layers; l++ {
		w.dW = append(w.dW, make([]float32, c.Dim))
		w.dB = append(w.dB, make([]float32, c.Dim))
	}
	return w
}

// Forward runs the cross stack on the rows of x0 (n rows of Dim) and
// returns the n output rows; the returned slice is worker-owned.
func (w *CrossWorker) Forward(x0 []float32) []float32 {
	c := w.c
	n := rowsOf(x0, c.Dim)
	c.Mu.RLock()
	defer c.Mu.RUnlock()
	w.rows = n
	for l := range w.xs {
		w.xs[l] = util.Grow(w.xs[l], len(x0))
	}
	w.dot = util.Grow(w.dot, n*c.Layers)
	copy(w.xs[0], x0)
	for s := 0; s < n; s++ {
		row := w.xs[0][s*c.Dim : (s+1)*c.Dim]
		for l := 0; l < c.Layers; l++ {
			xl := w.xs[l][s*c.Dim : (s+1)*c.Dim]
			d := tensor.Dot(c.W[l], xl)
			w.dot[s*c.Layers+l] = d
			out := w.xs[l+1][s*c.Dim : (s+1)*c.Dim]
			for i := range out {
				out[i] = row[i]*d + c.B[l][i] + xl[i]
			}
		}
	}
	return w.xs[c.Layers]
}

// Backward accumulates gradients for the rows of the last Forward given
// dOut (n rows) and returns dLoss/dx0 per row. Rows fold into the
// gradients in order, as n one-row calls would.
func (w *CrossWorker) Backward(dOut []float32) []float32 {
	c := w.c
	n := w.rows
	if len(dOut) != n*c.Dim {
		panic(fmt.Sprintf("nn: %d output gradients for %d rows of %d", len(dOut), n, c.Dim))
	}
	c.Mu.RLock()
	defer c.Mu.RUnlock()
	w.dx = util.Grow(w.dx, len(dOut))
	dx := w.g
	for s := 0; s < n; s++ {
		x0 := w.xs[0][s*c.Dim : (s+1)*c.Dim]
		dx0 := w.dx[s*c.Dim : (s+1)*c.Dim]
		copy(dx, dOut[s*c.Dim:(s+1)*c.Dim])
		tensor.Zero(dx0)
		for l := c.Layers - 1; l >= 0; l-- {
			// x_{l+1} = x0·d + b + x_l with d = w·x_l.
			// ∂L/∂d   = dx · x0
			dd := tensor.Dot(dx, x0)
			// ∂L/∂x0 += dx · d   (direct term; x0 also feeds shallower layers)
			tensor.Axpy(w.dot[s*c.Layers+l], dx, dx0)
			// ∂L/∂b  += dx
			tensor.Axpy(1, dx, w.dB[l])
			// ∂L/∂w  += dd · x_l
			tensor.Axpy(dd, w.xs[l][s*c.Dim:(s+1)*c.Dim], w.dW[l])
			// ∂L/∂x_l = dx + dd·w
			for i := range dx {
				dx[i] += dd * c.W[l][i]
			}
		}
		// The layer-0 input is x0 itself: fold in the skip-path gradient.
		tensor.Axpy(1, dx, dx0)
	}
	w.n += n
	return w.dx
}

// Apply folds accumulated gradients into the shared parameters.
func (w *CrossWorker) Apply(lr float32) {
	if w.n == 0 {
		return
	}
	c := w.c
	scale := -lr / float32(w.n)
	c.Mu.Lock()
	for l := 0; l < c.Layers; l++ {
		tensor.Axpy(scale, w.dW[l], c.W[l])
		tensor.Axpy(scale, w.dB[l], c.B[l])
		tensor.Zero(w.dW[l])
		tensor.Zero(w.dB[l])
	}
	c.Mu.Unlock()
	w.n = 0
}
