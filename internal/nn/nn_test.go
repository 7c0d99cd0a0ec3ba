package nn

import (
	"math"
	"sync"
	"testing"

	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

// bceWithLogits returns the binary-cross-entropy loss and dLoss/dLogit for
// a single logit and 0/1 label. The trainer keeps its own (train's
// bceLogit), whose float order the pinned training hashes record.
func bceWithLogits(logit float32, label float32) (loss, dLogit float32) {
	p := tensor.Sigmoid(logit)
	eps := float32(1e-7)
	if label > 0.5 {
		loss = -logf(p + eps)
	} else {
		loss = -logf(1 - p + eps)
	}
	return loss, p - label
}

// numGrad computes a central-difference gradient of f at x[i].
func numGrad(f func() float32, x []float32, i int) float32 {
	const h = 1e-3
	orig := x[i]
	x[i] = orig + h
	fp := float64(f())
	x[i] = orig - h
	fm := float64(f())
	x[i] = orig
	return float32((fp - fm) / (2 * h))
}

func TestMLPGradCheckInput(t *testing.T) {
	m := NewMLP([]int{5, 7, 1}, 1)
	w := m.NewWorker()
	r := util.NewRNG(2)
	x := make([]float32, 5)
	for i := range x {
		x[i] = r.Float32()*2 - 1
	}
	label := float32(1)
	lossAt := func() float32 {
		out := w.Forward(x)
		loss, _ := bceWithLogits(out[0], label)
		return loss
	}
	out := w.Forward(x)
	_, dLogit := bceWithLogits(out[0], label)
	dx := w.Backward([]float32{dLogit})
	for i := range x {
		want := numGrad(lossAt, x, i)
		if math.Abs(float64(dx[i]-want)) > 2e-2*(1+math.Abs(float64(want))) {
			t.Errorf("input grad %d: analytic %v numeric %v", i, dx[i], want)
		}
	}
}

func TestMLPGradCheckWeights(t *testing.T) {
	m := NewMLP([]int{4, 6, 1}, 3)
	w := m.NewWorker()
	r := util.NewRNG(4)
	x := make([]float32, 4)
	for i := range x {
		x[i] = r.Float32()*2 - 1
	}
	label := float32(0)
	lossAt := func() float32 {
		out := w.Forward(x)
		loss, _ := bceWithLogits(out[0], label)
		return loss
	}
	out := w.Forward(x)
	_, dLogit := bceWithLogits(out[0], label)
	w.Backward([]float32{dLogit})
	// Check a sample of weight gradients in each layer.
	for l := range m.W {
		for _, i := range []int{0, len(m.W[l]) / 2, len(m.W[l]) - 1} {
			want := numGrad(lossAt, m.W[l], i)
			got := w.dW[l][i]
			if math.Abs(float64(got-want)) > 2e-2*(1+math.Abs(float64(want))) {
				t.Errorf("layer %d W[%d]: analytic %v numeric %v", l, i, got, want)
			}
		}
		for _, i := range []int{0, len(m.B[l]) - 1} {
			want := numGrad(lossAt, m.B[l], i)
			got := w.dB[l][i]
			if math.Abs(float64(got-want)) > 2e-2*(1+math.Abs(float64(want))) {
				t.Errorf("layer %d B[%d]: analytic %v numeric %v", l, i, got, want)
			}
		}
	}
}

func TestCrossGradCheck(t *testing.T) {
	c := NewCrossStack(6, 3, 5)
	w := c.NewWorker()
	r := util.NewRNG(6)
	x := make([]float32, 6)
	for i := range x {
		x[i] = r.Float32()*2 - 1
	}
	// Scalar loss: sum of outputs squared / 2, so dOut = out.
	lossAt := func() float32 {
		out := w.Forward(x)
		var s float32
		for _, v := range out {
			s += v * v
		}
		return s / 2
	}
	out := w.Forward(x)
	dx := w.Backward(append([]float32(nil), out...))
	for i := range x {
		want := numGrad(lossAt, x, i)
		if math.Abs(float64(dx[i]-want)) > 2e-2*(1+math.Abs(float64(want))) {
			t.Errorf("x grad %d: analytic %v numeric %v", i, dx[i], want)
		}
	}
	for l := 0; l < c.Layers; l++ {
		for _, i := range []int{0, c.Dim - 1} {
			want := numGrad(lossAt, c.W[l], i)
			if got := w.dW[l][i]; math.Abs(float64(got-want)) > 2e-2*(1+math.Abs(float64(want))) {
				t.Errorf("layer %d w[%d]: analytic %v numeric %v", l, i, got, want)
			}
			wantB := numGrad(lossAt, c.B[l], i)
			if got := w.dB[l][i]; math.Abs(float64(got-wantB)) > 2e-2*(1+math.Abs(float64(wantB))) {
				t.Errorf("layer %d b[%d]: analytic %v numeric %v", l, i, got, wantB)
			}
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	m := NewMLP([]int{2, 8, 1}, 7)
	w := m.NewWorker()
	data := [][3]float32{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	for epoch := 0; epoch < 4000; epoch++ {
		for _, d := range data {
			out := w.Forward(d[:2])
			_, dLogit := bceWithLogits(out[0], d[2])
			w.Backward([]float32{dLogit})
		}
		w.Apply(0.5)
	}
	for _, d := range data {
		out := w.Forward(d[:2])
		p := tensor.Sigmoid(out[0])
		if (d[2] > 0.5) != (p > 0.5) {
			t.Fatalf("XOR(%v,%v): predicted %v, want %v", d[0], d[1], p, d[2])
		}
	}
}

func TestSoftmaxCE(t *testing.T) {
	logits := []float32{2, 1, 0.1}
	probs := make([]float32, 3)
	dl := make([]float32, 3)
	loss := SoftmaxCE(logits, 0, probs, dl)
	if loss <= 0 {
		t.Fatal("loss must be positive")
	}
	var sum float32
	for _, p := range probs {
		if p <= 0 || p >= 1 {
			t.Fatalf("prob out of range: %v", p)
		}
		sum += p
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Fatalf("probs sum to %v", sum)
	}
	// Gradient sums to zero, negative at the label.
	var gsum float32
	for _, g := range dl {
		gsum += g
	}
	if math.Abs(float64(gsum)) > 1e-5 {
		t.Fatalf("gradient sum %v", gsum)
	}
	if dl[0] >= 0 {
		t.Fatal("label gradient should be negative")
	}
}

func TestBCEWithLogits(t *testing.T) {
	// Perfect confident prediction → tiny loss.
	loss, grad := bceWithLogits(10, 1)
	if loss > 0.01 || math.Abs(float64(grad)) > 0.01 {
		t.Fatalf("confident correct: loss=%v grad=%v", loss, grad)
	}
	// Confident wrong → large loss, gradient ~1.
	loss, grad = bceWithLogits(10, 0)
	if loss < 1 || grad < 0.9 {
		t.Fatalf("confident wrong: loss=%v grad=%v", loss, grad)
	}
}

func TestConcurrentWorkersShareWeights(t *testing.T) {
	m := NewMLP([]int{3, 4, 1}, 11)
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			w := m.NewWorker()
			r := util.NewRNG(seed)
			x := make([]float32, 3)
			for it := 0; it < 200; it++ {
				for j := range x {
					x[j] = r.Float32()
				}
				out := w.Forward(x)
				_, d := bceWithLogits(out[0], float32(it%2))
				w.Backward([]float32{d})
				if it%10 == 9 {
					w.Apply(0.01)
				}
			}
		}(uint64(i))
	}
	wg.Wait()
}

func TestTensorKernels(t *testing.T) {
	w := []float32{1, 2, 3, 4, 5, 6} // 2x3
	x := []float32{1, 1, 1}
	y := make([]float32, 2)
	tensor.MatVec(w, 2, 3, x, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec: %v", y)
	}
	xt := make([]float32, 3)
	tensor.MatVecT(w, 2, 3, []float32{1, 1}, xt)
	if xt[0] != 5 || xt[1] != 7 || xt[2] != 9 {
		t.Fatalf("MatVecT: %v", xt)
	}
	dw := make([]float32, 6)
	tensor.OuterAcc(dw, 2, 3, []float32{1, 2}, []float32{3, 4, 5})
	if dw[0] != 3 || dw[5] != 10 {
		t.Fatalf("OuterAcc: %v", dw)
	}
	probs := make([]float32, 3)
	tensor.Softmax([]float32{1000, 1000, 1000}, probs) // overflow guard
	for _, p := range probs {
		if math.Abs(float64(p-1.0/3)) > 1e-5 {
			t.Fatalf("Softmax overflow: %v", probs)
		}
	}
	if tensor.ArgMax([]float32{1, 5, 3}) != 1 {
		t.Fatal("ArgMax")
	}
}
