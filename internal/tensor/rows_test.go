package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// randRows fills n values in [-1, 1), a quarter of them exact zeros (as a
// ReLU-masked gradient has), so a kernel that skips or reorders a zero
// product shows up in the sign of a zero sum too.
func randRows(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if r.IntN(4) != 0 {
			v[i] = r.Float32()*2 - 1
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#08x), per-row loop gives %v (%#08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestRowKernelsBitIdentical: each row kernel equals n calls of its
// one-row form under math.Float32bits, for shapes whose sides are not
// multiples of the 4-wide blocking and row counts with an odd tail.
func TestRowKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 3, 32} {
		for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 13}, {8, 4}, {33, 132}, {1, 132}} {
			rows, cols := shape[0], shape[1]
			t.Run(fmt.Sprintf("n%d/%dx%d", n, rows, cols), func(t *testing.T) {
				w := randRows(r, rows*cols)

				x := randRows(r, n*cols)
				got, want := make([]float32, n*rows), make([]float32, n*rows)
				MatVecRows(w, rows, cols, x, n, got)
				for s := 0; s < n; s++ {
					MatVec(w, rows, cols, x[s*cols:(s+1)*cols], want[s*rows:(s+1)*rows])
				}
				sameBits(t, "MatVecRows", got, want)

				dy := randRows(r, n*rows)
				dw := randRows(r, rows*cols)
				want = append([]float32(nil), dw...)
				OuterAccRows(dw, rows, cols, dy, x, n)
				for s := 0; s < n; s++ {
					OuterAcc(want, rows, cols, dy[s*rows:(s+1)*rows], x[s*cols:(s+1)*cols])
				}
				sameBits(t, "OuterAccRows", dw, want)

				got, want = make([]float32, n*cols), make([]float32, n*cols)
				MatVecTRows(w, rows, cols, dy, n, got)
				for s := 0; s < n; s++ {
					MatVecT(w, rows, cols, dy[s*rows:(s+1)*rows], want[s*cols:(s+1)*cols])
				}
				sameBits(t, "MatVecTRows", got, want)
			})
		}
	}
}

// BenchmarkRowKernels times one DLRM-tower layer (32 rows, 132 → 32) per
// kernel, row-blocked against the per-row loop it replaces.
func BenchmarkRowKernels(b *testing.B) {
	const n, rows, cols = 32, 32, 132
	r := rand.New(rand.NewPCG(3, 4))
	w, x, dy := randRows(r, rows*cols), randRows(r, n*cols), randRows(r, n*rows)
	y, dx, dw := make([]float32, n*rows), make([]float32, n*cols), make([]float32, rows*cols)
	for _, k := range []struct {
		name         string
		rows, perRow func()
	}{
		{"MatVec",
			func() { MatVecRows(w, rows, cols, x, n, y) },
			func() {
				for s := 0; s < n; s++ {
					MatVec(w, rows, cols, x[s*cols:(s+1)*cols], y[s*rows:(s+1)*rows])
				}
			}},
		{"OuterAcc",
			func() { OuterAccRows(dw, rows, cols, dy, x, n) },
			func() {
				for s := 0; s < n; s++ {
					OuterAcc(dw, rows, cols, dy[s*rows:(s+1)*rows], x[s*cols:(s+1)*cols])
				}
			}},
		{"MatVecT",
			func() { MatVecTRows(w, rows, cols, dy, n, dx) },
			func() {
				for s := 0; s < n; s++ {
					MatVecT(w, rows, cols, dy[s*rows:(s+1)*rows], dx[s*cols:(s+1)*cols])
				}
			}},
	} {
		b.Run(k.name+"/rows", func(b *testing.B) {
			for range b.N {
				k.rows()
			}
		})
		b.Run(k.name+"/per-row", func(b *testing.B) {
			for range b.N {
				k.perRow()
			}
		})
	}
}
