// Package tensor provides the small float32 vector/matrix kernels the
// neural-network substrate is built from. Everything operates on flat
// []float32 buffers; matrices are row-major.
package tensor

import "math"

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// MatVec computes y = W·x for W (rows×cols, row-major).
func MatVec(w []float32, rows, cols int, x, y []float32) {
	for r := 0; r < rows; r++ {
		y[r] = Dot(w[r*cols:(r+1)*cols], x)
	}
}

// MatVecT computes y = Wᵀ·x for W (rows×cols); x has rows elements, y cols.
func MatVecT(w []float32, rows, cols int, x, y []float32) {
	for c := 0; c < cols; c++ {
		y[c] = 0
	}
	for r := 0; r < rows; r++ {
		Axpy(x[r], w[r*cols:(r+1)*cols], y)
	}
}

// OuterAcc accumulates dW += dy ⊗ x into W-shaped dw (rows×cols).
func OuterAcc(dw []float32, rows, cols int, dy, x []float32) {
	for r := 0; r < rows; r++ {
		Axpy(dy[r], x, dw[r*cols:(r+1)*cols])
	}
}

// The three row kernels below are the minibatch forms of MatVec, OuterAcc
// and MatVecT: each equals n calls of its one-row form bit for bit. Every
// output element keeps one accumulator that adds its products in the order
// the one-row form does (ascending over the summed index; OuterAccRows folds
// the rows in ascending order), so blocking only changes how many
// accumulators are live at once, never what any of them sums. A kernel that
// reorders a sum fails TestRowKernelsBitIdentical and, above it,
// TestTrainersDeterministic.

// MatVecRows computes y_s = W·x_s for n rows: x is n×cols, y is n×rows, W is
// rows×cols. It is blocked 2 rows of x × 4 rows of W: each W element loaded
// is used twice and each x element four times.
func MatVecRows(w []float32, rows, cols int, x []float32, n int, y []float32) {
	s := 0
	for ; s+2 <= n; s += 2 {
		x0 := x[s*cols : (s+1)*cols]
		x1 := x[(s+1)*cols : (s+2)*cols][:len(x0)]
		y0 := y[s*rows : (s+1)*rows]
		y1 := y[(s+1)*rows : (s+2)*rows]
		r := 0
		for ; r+4 <= rows; r += 4 {
			w0 := w[r*cols:][:len(x0)]
			w1 := w[(r+1)*cols:][:len(x0)]
			w2 := w[(r+2)*cols:][:len(x0)]
			w3 := w[(r+3)*cols:][:len(x0)]
			var a00, a01, a02, a03, a10, a11, a12, a13 float32
			for c, u := range x0 {
				v := x1[c]
				a00 += w0[c] * u
				a01 += w1[c] * u
				a02 += w2[c] * u
				a03 += w3[c] * u
				a10 += w0[c] * v
				a11 += w1[c] * v
				a12 += w2[c] * v
				a13 += w3[c] * v
			}
			y0[r], y0[r+1], y0[r+2], y0[r+3] = a00, a01, a02, a03
			y1[r], y1[r+1], y1[r+2], y1[r+3] = a10, a11, a12, a13
		}
		for ; r < rows; r++ {
			wr := w[r*cols : (r+1)*cols]
			y0[r] = Dot(wr, x0)
			y1[r] = Dot(wr, x1)
		}
	}
	if s < n {
		MatVec(w, rows, cols, x[s*cols:(s+1)*cols], y[s*rows:(s+1)*rows])
	}
}

// OuterAccRows accumulates dW += dy_s ⊗ x_s over n rows, s ascending: dy is
// n×rows, x is n×cols, dW is rows×cols. It is blocked 2 rows × 4 columns of
// dW, each held in a register across all n rows.
func OuterAccRows(dw []float32, rows, cols int, dy, x []float32, n int) {
	dy, x = dy[:n*rows], x[:n*cols]
	r := 0
	for ; r+2 <= rows; r += 2 {
		d0 := dw[r*cols : (r+1)*cols]
		d1 := dw[(r+1)*cols : (r+2)*cols]
		c := 0
		for ; c+4 <= cols; c += 4 {
			a00, a01, a02, a03 := d0[c], d0[c+1], d0[c+2], d0[c+3]
			a10, a11, a12, a13 := d1[c], d1[c+1], d1[c+2], d1[c+3]
			// Running offsets, not s*rows+r: the inner loop is short of
			// integer registers, and a multiply per index spills.
			q, o := r, c
			for s := 0; s < n; s++ {
				g0, g1 := dy[q], dy[q+1]
				x0, x1, x2, x3 := x[o], x[o+1], x[o+2], x[o+3]
				q += rows
				o += cols
				a00 += g0 * x0
				a01 += g0 * x1
				a02 += g0 * x2
				a03 += g0 * x3
				a10 += g1 * x0
				a11 += g1 * x1
				a12 += g1 * x2
				a13 += g1 * x3
			}
			d0[c], d0[c+1], d0[c+2], d0[c+3] = a00, a01, a02, a03
			d1[c], d1[c+1], d1[c+2], d1[c+3] = a10, a11, a12, a13
		}
		for ; c < cols; c++ {
			a0, a1 := d0[c], d1[c]
			for s := 0; s < n; s++ {
				a0 += dy[s*rows+r] * x[s*cols+c]
				a1 += dy[s*rows+r+1] * x[s*cols+c]
			}
			d0[c], d1[c] = a0, a1
		}
	}
	if r < rows {
		d := dw[r*cols : (r+1)*cols]
		for c := range d {
			a := d[c]
			for s := 0; s < n; s++ {
				a += dy[s*rows+r] * x[s*cols+c]
			}
			d[c] = a
		}
	}
}

// MatVecTRows computes y_s = Wᵀ·x_s for n rows: x is n×rows, y is n×cols, W
// is rows×cols. It is blocked 2 rows of x × 4 columns of W: each W element
// loaded is used twice and each x element four times.
func MatVecTRows(w []float32, rows, cols int, x []float32, n int, y []float32) {
	s := 0
	for ; s+2 <= n; s += 2 {
		x0 := x[s*rows : (s+1)*rows]
		x1 := x[(s+1)*rows : (s+2)*rows][:len(x0)]
		y0 := y[s*cols : (s+1)*cols]
		y1 := y[(s+1)*cols : (s+2)*cols]
		c := 0
		for ; c+4 <= cols; c += 4 {
			var a00, a01, a02, a03, a10, a11, a12, a13 float32
			o := c // running offset of W[r][c], as in OuterAccRows
			for r, u := range x0 {
				v := x1[r]
				w0, w1, w2, w3 := w[o], w[o+1], w[o+2], w[o+3]
				o += cols
				a00 += u * w0
				a01 += u * w1
				a02 += u * w2
				a03 += u * w3
				a10 += v * w0
				a11 += v * w1
				a12 += v * w2
				a13 += v * w3
			}
			y0[c], y0[c+1], y0[c+2], y0[c+3] = a00, a01, a02, a03
			y1[c], y1[c+1], y1[c+2], y1[c+3] = a10, a11, a12, a13
		}
		for ; c < cols; c++ {
			var a0, a1 float32
			for r, u := range x0 {
				a0 += u * w[r*cols+c]
				a1 += x1[r] * w[r*cols+c]
			}
			y0[c], y1[c] = a0, a1
		}
	}
	if s < n {
		MatVecT(w, rows, cols, x[s*rows:(s+1)*rows], y[s*cols:(s+1)*cols])
	}
}

// ReLU computes y = max(x, 0) in place and records the mask in x itself.
func ReLU(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// ReLUGrad zeroes dy where the forward activation was clamped.
func ReLUGrad(act, dy []float32) {
	for i := range dy {
		if act[i] <= 0 {
			dy[i] = 0
		}
	}
}

// Sigmoid returns 1/(1+e^-x) with overflow guards.
func Sigmoid(x float32) float32 {
	if x >= 0 {
		z := float32(math.Exp(float64(-x)))
		return 1 / (1 + z)
	}
	z := float32(math.Exp(float64(x)))
	return z / (1 + z)
}

// Softmax writes the softmax of logits into probs.
func Softmax(logits, probs []float32) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range logits {
		e := float32(math.Exp(float64(v - maxv)))
		probs[i] = e
		sum += e
	}
	for i := range probs {
		probs[i] /= sum
	}
}

// ArgMax returns the index of the largest element.
func ArgMax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Zero clears x.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}
