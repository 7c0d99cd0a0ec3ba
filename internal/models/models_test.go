package models

import (
	"math"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

func randVec(r *util.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.Float32()*2 - 1
	}
	return v
}

func numGrad32(f func() float32, x []float32, i int) float32 {
	const h = 1e-3
	orig := x[i]
	x[i] = orig + h
	fp := float64(f())
	x[i] = orig - h
	fm := float64(f())
	x[i] = orig
	return float32((fp - fm) / (2 * h))
}

func approx(a, b float32, tol float64) bool {
	return math.Abs(float64(a-b)) <= tol*(1+math.Abs(float64(b)))
}

// --- DLRM ---

func TestDLRMGradCheckEmbeddings(t *testing.T) {
	for _, kind := range []DLRMKind{FFNN, DCN} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			m := NewDLRM(kind, 3, 4, 2, []int{8}, 1)
			w := m.NewWorker()
			r := util.NewRNG(2)
			x := randVec(r, m.InputDim()) // 2 dense features, then 3×4 embeddings
			embs := x[m.DenseDim:]
			label := float32(1)
			lossAt := func() float32 {
				logits, _ := w.Forward(x)
				l, _ := bceLoss(logits[0], label)
				return l
			}
			logits, err := w.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			loss, dLogit := bceLoss(logits[0], label)
			if loss <= 0 {
				t.Fatalf("loss=%v", loss)
			}
			dEmb := w.Backward([]float32{dLogit})
			for i := range embs {
				want := numGrad32(lossAt, embs, i)
				if !approx(dEmb[i], want, 2e-2) {
					t.Errorf("emb grad %d: analytic %v numeric %v", i, dEmb[i], want)
				}
			}
		})
	}
}

func bceLoss(logit, label float32) (float32, float32) {
	p := 1 / (1 + expf32(-logit))
	eps := float32(1e-7)
	if label > 0.5 {
		return -logf32(p + eps), p - label
	}
	return -logf32(1 - p + eps), p - label
}

func TestDLRMLearnsSyntheticSignal(t *testing.T) {
	// Label depends on the first embedding's first component; the model must
	// drive loss down via dense + embedding updates.
	m := NewDLRM(FFNN, 2, 4, 2, []int{8}, 3)
	w := m.NewWorker()
	r := util.NewRNG(4)
	// Fixed small embedding table updated by hand.
	table := make([][]float32, 20)
	labels := make([]float32, 20)
	for i := range table {
		table[i] = randVec(r, 4)
		if table[i][0] > 0 {
			labels[i] = 1
		}
	}
	var lastAvg float32
	for epoch := 0; epoch < 200; epoch++ {
		var sum float32
		for it := 0; it < 100; it++ {
			k1 := int(r.Uint64n(20))
			k2 := int(r.Uint64n(20))
			label := labels[k1]
			x := append(append([]float32{0.5, -0.5}, table[k1]...), table[k2]...)
			logits, err := w.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			loss, dLogit := bceLoss(logits[0], label)
			dEmb := w.Backward([]float32{dLogit})
			sum += loss
			for i := 0; i < 4; i++ {
				table[k1][i] -= 0.1 * dEmb[i]
				table[k2][i] -= 0.1 * dEmb[4+i]
			}
			if it%10 == 9 {
				w.Apply(0.1)
			}
		}
		lastAvg = sum / 100
	}
	if lastAvg > 0.5 {
		t.Fatalf("DLRM failed to learn: final avg loss %v", lastAvg)
	}
}

// --- KGE ---

func TestKGEGradCheck(t *testing.T) {
	t.Run("DistMult", func(t *testing.T) {
		const dim = 8
		m := NewKGE(dim)
		r := util.NewRNG(5)
		h, rel, tl := randVec(r, dim), randVec(r, dim), randVec(r, dim)
		neg := [][]float32{randVec(r, dim), randVec(r, dim)}
		lossAt := func() float32 {
			dh := make([]float32, dim)
			dr := make([]float32, dim)
			dt := make([]float32, dim)
			dn := [][]float32{make([]float32, dim), make([]float32, dim)}
			return m.TripleLoss(h, rel, tl, neg, dh, dr, dt, dn)
		}
		dh := make([]float32, dim)
		dr := make([]float32, dim)
		dt := make([]float32, dim)
		dn := [][]float32{make([]float32, dim), make([]float32, dim)}
		m.TripleLoss(h, rel, tl, neg, dh, dr, dt, dn)
		for i := 0; i < dim; i++ {
			if want := numGrad32(lossAt, h, i); !approx(dh[i], want, 2e-2) {
				t.Errorf("dh[%d]: analytic %v numeric %v", i, dh[i], want)
			}
			if want := numGrad32(lossAt, rel, i); !approx(dr[i], want, 2e-2) {
				t.Errorf("dr[%d]: analytic %v numeric %v", i, dr[i], want)
			}
			if want := numGrad32(lossAt, tl, i); !approx(dt[i], want, 2e-2) {
				t.Errorf("dt[%d]: analytic %v numeric %v", i, dt[i], want)
			}
			if want := numGrad32(lossAt, neg[0], i); !approx(dn[0][i], want, 2e-2) {
				t.Errorf("dneg[%d]: analytic %v numeric %v", i, dn[0][i], want)
			}
		}
	})
}

func TestKGETrainingSeparatesPositives(t *testing.T) {
	const dim = 8
	m := NewKGE(dim)
	r := util.NewRNG(6)
	ents := make([][]float32, 30)
	for i := range ents {
		ents[i] = randVec(r, dim)
	}
	rel := randVec(r, dim)
	// Ground truth: entity i links to entity (i+1)%30 under rel.
	lr := float32(0.1)
	for epoch := 0; epoch < 300; epoch++ {
		for i := 0; i < 30; i++ {
			h, tl := ents[i], ents[(i+1)%30]
			negIdx := int(r.Uint64n(30))
			for negIdx == (i+1)%30 {
				negIdx = int(r.Uint64n(30))
			}
			neg := [][]float32{ents[negIdx]}
			dh := make([]float32, dim)
			dr := make([]float32, dim)
			dt := make([]float32, dim)
			dn := [][]float32{make([]float32, dim)}
			m.TripleLoss(h, rel, tl, neg, dh, dr, dt, dn)
			for j := 0; j < dim; j++ {
				h[j] -= lr * dh[j]
				rel[j] -= lr * dr[j]
				tl[j] -= lr * dt[j]
				neg[0][j] -= lr * dn[0][j]
			}
		}
	}
	// Positive scores must dominate random negatives.
	hits := 0
	for i := 0; i < 30; i++ {
		negs := make([][]float32, 10)
		for j := range negs {
			negs[j] = ents[int(r.Uint64n(30))]
		}
		hits += m.HitsAtK(ents[i], rel, ents[(i+1)%30], negs, 3)
	}
	if hits < 20 {
		t.Fatalf("Hits@3 after training = %d/30, model failed to learn", hits)
	}
}

// --- GraphSage ---

func TestGraphSageGradCheck(t *testing.T) {
	const dim, hidden, classes, fanout = 4, 6, 3, 2
	g := NewGraphSage(dim, hidden, classes, 7)
	w := g.NewWorker(fanout)
	r := util.NewRNG(8)
	eSelf := [][]float32{randVec(r, dim), randVec(r, dim), randVec(r, dim)}
	eMean := [][]float32{randVec(r, dim), randVec(r, dim), randVec(r, dim)}
	label := 1
	lossAt := func() float32 {
		logits := w.Forward(eSelf, eMean)
		probs := make([]float32, classes)
		dl := make([]float32, classes)
		return ceLoss(logits, label, probs, dl)
	}
	_, _, dSelf, dMean := w.Step(eSelf, eMean, label)
	for n := 0; n <= fanout; n++ {
		for i := 0; i < dim; i++ {
			if want := numGrad32(lossAt, eSelf[n], i); !approx(dSelf[n][i], want, 3e-2) {
				t.Errorf("dSelf[%d][%d]: analytic %v numeric %v", n, i, dSelf[n][i], want)
			}
			if want := numGrad32(lossAt, eMean[n], i); !approx(dMean[n][i], want, 3e-2) {
				t.Errorf("dMean[%d][%d]: analytic %v numeric %v", n, i, dMean[n][i], want)
			}
		}
	}
}

func ceLoss(logits []float32, label int, probs, dl []float32) float32 {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range logits {
		probs[i] = expf32(v - maxv)
		sum += probs[i]
	}
	return -logf32(probs[label]/sum + 1e-7)
}

func TestGNNsLearnSeparableCommunities(t *testing.T) {
	// Nodes in community c have embeddings near the community centroid;
	// label = community. GraphSage should fit quickly.
	const dim, hidden, classes, fanout = 8, 16, 3, 3
	r := util.NewRNG(11)
	centro := make([][]float32, classes)
	for c := range centro {
		centro[c] = randVec(r, dim)
	}
	mkNode := func(c int) []float32 {
		v := append([]float32(nil), centro[c]...)
		for i := range v {
			v[i] += (r.Float32()*2 - 1) * 0.1
		}
		return v
	}
	g := NewGraphSage(dim, hidden, classes, 12)
	w := g.NewWorker(fanout)
	for it := 0; it < 3000; it++ {
		c := int(r.Uint64n(classes))
		eSelf := make([][]float32, fanout+1)
		eMean := make([][]float32, fanout+1)
		for i := range eSelf {
			eSelf[i] = mkNode(c)
			eMean[i] = mkNode(c)
		}
		w.Step(eSelf, eMean, c)
		if it%8 == 7 {
			w.Apply(0.05)
		}
	}
	correct := 0
	const evals = 300
	for it := 0; it < evals; it++ {
		c := int(r.Uint64n(classes))
		eSelf := make([][]float32, fanout+1)
		eMean := make([][]float32, fanout+1)
		for i := range eSelf {
			eSelf[i] = mkNode(c)
			eMean[i] = mkNode(c)
		}
		if w.Predict(eSelf, eMean) == c {
			correct++
		}
	}
	if acc := float64(correct) / evals; acc < 0.9 {
		t.Fatalf("GraphSage accuracy %v < 0.9", acc)
	}
}
