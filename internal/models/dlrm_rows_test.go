package models

import (
	"fmt"
	"math"
	"testing"

	"github.com/llm-db/mlkv-go/internal/tensor"
	"github.com/llm-db/mlkv-go/internal/util"
)

// dlrmRows returns n random input rows and 0/1 labels for m.
func dlrmRows(m *DLRM, n int, seed uint64) (x, labels []float32) {
	r := util.NewRNG(seed)
	x = randVec(r, n*m.InputDim())
	labels = make([]float32, n)
	for i := range labels {
		labels[i] = float32(r.Uint64n(2))
	}
	return x, labels
}

// dlrmStep is one training step of the dense tower over the rows of x:
// forward, the logistic-loss gradient per row, backward, apply.
func dlrmStep(w *DLRMWorker, x, labels, dLogits []float32) []float32 {
	logits, err := w.Forward(x)
	if err != nil {
		panic(err)
	}
	for i, l := range logits {
		dLogits[i] = tensor.Sigmoid(l) - labels[i]
	}
	return w.Backward(dLogits[:len(logits)])
}

// TestDLRMRowsBitIdentical: an n-row DLRM step computes the same logits,
// embedding gradients and, after Apply, weights as n one-row steps, bit
// for bit — for the FFNN tower and for DCN, whose cross and deep halves are
// split and joined per row.
func TestDLRMRowsBitIdentical(t *testing.T) {
	for _, kind := range []DLRMKind{FFNN, DCN} {
		for _, n := range []int{1, 3, 32} {
			t.Run(fmt.Sprintf("%v/n%d", kind, n), func(t *testing.T) {
				a, b := NewDLRM(kind, 3, 5, 2, []int{7}, 1), NewDLRM(kind, 3, 5, 2, []int{7}, 1)
				wa, wb := a.NewWorker(), b.NewWorker()
				in, e := a.InputDim(), a.Fields*a.Dim
				dLogits := make([]float32, n)
				for round := 0; round < 3; round++ {
					x, labels := dlrmRows(a, n, uint64(round))
					logits, _ := wa.Forward(x)
					logits = append([]float32(nil), logits...)
					dEmb := dlrmStep(wa, x, labels, dLogits)
					for s := 0; s < n; s++ {
						one, _ := wb.Forward(x[s*in : (s+1)*in])
						if math.Float32bits(one[0]) != math.Float32bits(logits[s]) {
							t.Fatalf("round %d row %d: logit %v, one-row forward %v", round, s, logits[s], one[0])
						}
						got := dEmb[s*e : (s+1)*e]
						want := dlrmStep(wb, x[s*in:(s+1)*in], labels[s:s+1], dLogits)
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("round %d row %d: dEmb[%d] %v, one-row step %v", round, s, i, got[i], want[i])
							}
						}
					}
					wa.Apply(0.1)
					wb.Apply(0.1)
				}
				// Every dense weight feeds the logit of a fresh row.
				x, _ := dlrmRows(a, 1, 99)
				la, _ := wa.Forward(x)
				lb, _ := wb.Forward(x)
				if math.Float32bits(la[0]) != math.Float32bits(lb[0]) {
					t.Fatalf("after Apply: logit %v, one-row steps give %v", la[0], lb[0])
				}
			})
		}
	}
}

// TestDLRMStepAllocs: a 32-row forward + backward + apply allocates
// nothing once the worker has seen a minibatch that size.
func TestDLRMStepAllocs(t *testing.T) {
	for _, kind := range []DLRMKind{FFNN, DCN} {
		t.Run(kind.String(), func(t *testing.T) {
			m := NewDLRM(kind, 8, 16, 4, []int{32}, 13)
			w := m.NewWorker()
			x, labels := dlrmRows(m, 32, 1)
			dLogits := make([]float32, 32)
			if a := testing.AllocsPerRun(20, func() {
				dlrmStep(w, x, labels, dLogits)
				w.Apply(0.01)
			}); a != 0 {
				t.Fatalf("%v allocs per 32-row step, want 0", a)
			}
		})
	}
}

// BenchmarkDLRMStep times one 32-row training step of the dense tower at
// the repo benchmark's DLRM shape (4 dense + 8 fields × 16 → 32 → 1):
// forward, backward and apply, no storage.
func BenchmarkDLRMStep(b *testing.B) {
	for _, kind := range []DLRMKind{FFNN, DCN} {
		b.Run(kind.String(), func(b *testing.B) {
			m := NewDLRM(kind, 8, 16, 4, []int{32}, 13)
			w := m.NewWorker()
			x, labels := dlrmRows(m, 32, 1)
			dLogits := make([]float32, 32)
			b.ReportAllocs()
			for range b.N {
				dlrmStep(w, x, labels, dLogits)
				w.Apply(0.01)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*32)/1e3, "us/sample")
		})
	}
}
