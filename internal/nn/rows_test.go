package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

func randRows(r *util.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.Float32()*2 - 1
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, per-row calls give %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, per-row calls give %v", what, i, got[i], want[i])
		}
	}
}

// perRow runs n one-row forward/backward calls and returns the output rows
// and input-gradient rows, concatenated.
func perRow(fwd, bwd func([]float32) []float32, x, dOut []float32, n int) (out, dx []float32) {
	in, o := len(x)/n, len(dOut)/n
	for s := 0; s < n; s++ {
		out = append(out, fwd(x[s*in:(s+1)*in])...)
		dx = append(dx, bwd(dOut[s*o:(s+1)*o])...)
	}
	return out, dx
}

// TestMLPRowsBitIdentical: one n-row Forward/Backward equals n one-row
// calls under math.Float32bits — outputs, input gradients, dW, dB, and the
// weights after Apply — for layer widths that are not multiples of the
// kernels' 4-wide blocking.
func TestMLPRowsBitIdentical(t *testing.T) {
	for _, sizes := range [][]int{{13, 7, 5, 1}, {132, 32, 1}, {3, 1}} {
		for _, n := range []int{1, 3, 32} {
			t.Run(fmt.Sprintf("%v/n%d", sizes, n), func(t *testing.T) {
				a, b := NewMLP(sizes, 9), NewMLP(sizes, 9)
				wa, wb := a.NewWorker(), b.NewWorker()
				r := util.NewRNG(uint64(n))
				for round := 0; round < 3; round++ {
					x := randRows(r, n*sizes[0])
					dOut := randRows(r, n*sizes[len(sizes)-1])
					out := append([]float32(nil), wa.Forward(x)...)
					dx := wa.Backward(dOut)
					wantOut, wantDx := perRow(wb.Forward, wb.Backward, x, dOut, n)
					sameBits(t, "output", out, wantOut)
					sameBits(t, "dx", dx, wantDx)
					for l := range a.W {
						sameBits(t, fmt.Sprintf("dW[%d]", l), wa.dW[l], wb.dW[l])
						sameBits(t, fmt.Sprintf("dB[%d]", l), wa.dB[l], wb.dB[l])
					}
					wa.Apply(0.1)
					wb.Apply(0.1)
					for l := range a.W {
						sameBits(t, fmt.Sprintf("W[%d]", l), a.W[l], b.W[l])
						sameBits(t, fmt.Sprintf("B[%d]", l), a.B[l], b.B[l])
					}
				}
			})
		}
	}
}

// TestCrossRowsBitIdentical is TestMLPRowsBitIdentical for the DCN cross
// stack.
func TestCrossRowsBitIdentical(t *testing.T) {
	const dim = 13
	for _, n := range []int{1, 3, 32} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			a, b := NewCrossStack(dim, 3, 4), NewCrossStack(dim, 3, 4)
			wa, wb := a.NewWorker(), b.NewWorker()
			r := util.NewRNG(uint64(n))
			for round := 0; round < 3; round++ {
				x := randRows(r, n*dim)
				dOut := randRows(r, n*dim)
				out := append([]float32(nil), wa.Forward(x)...)
				dx := wa.Backward(dOut)
				wantOut, wantDx := perRow(wb.Forward, wb.Backward, x, dOut, n)
				sameBits(t, "output", out, wantOut)
				sameBits(t, "dx", dx, wantDx)
				for l := 0; l < a.Layers; l++ {
					sameBits(t, fmt.Sprintf("dW[%d]", l), wa.dW[l], wb.dW[l])
					sameBits(t, fmt.Sprintf("dB[%d]", l), wa.dB[l], wb.dB[l])
				}
				wa.Apply(0.1)
				wb.Apply(0.1)
				for l := 0; l < a.Layers; l++ {
					sameBits(t, fmt.Sprintf("W[%d]", l), a.W[l], b.W[l])
					sameBits(t, fmt.Sprintf("B[%d]", l), a.B[l], b.B[l])
				}
			}
		})
	}
}
