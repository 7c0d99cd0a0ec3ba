package util

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	if auc := AUC(scores, labels); auc != 1 {
		t.Errorf("AUC = %v, want 1", auc)
	}
}

func TestAUCInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{1, 1, 0, 0}
	if auc := AUC(scores, labels); auc != 0 {
		t.Errorf("AUC = %v, want 0", auc)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	r := NewRNG(5)
	const n = 20000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = int(r.Uint64n(2))
	}
	if auc := AUC(scores, labels); math.Abs(auc-0.5) > 0.02 {
		t.Errorf("AUC on random data = %v, want ~0.5", auc)
	}
}

func TestAUCTies(t *testing.T) {
	// All scores identical: AUC must be exactly 0.5 by average-rank ties.
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{1, 0, 1, 0}
	if auc := AUC(scores, labels); auc != 0.5 {
		t.Errorf("AUC with all ties = %v, want 0.5", auc)
	}
}

func TestAUCDegenerate(t *testing.T) {
	if AUC(nil, nil) != 0.5 {
		t.Error("empty input should return 0.5")
	}
	if AUC([]float64{1, 2}, []int{1, 1}) != 0.5 {
		t.Error("single-class input should return 0.5")
	}
}

func TestAUCInvariantUnderMonotoneTransform(t *testing.T) {
	f := func(raw []float64, bits uint64) bool {
		if len(raw) < 4 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, v := range raw {
			// Squash into (-1, 1) so the monotone transform below cannot
			// overflow and collapse distinct scores into ties.
			scores[i] = v / (1 + math.Abs(v))
			if math.IsNaN(scores[i]) {
				scores[i] = 0
			}
		}
		labels := make([]int, len(scores))
		for i := range labels {
			labels[i] = int((bits >> (uint(i) % 64)) & 1)
		}
		a := AUC(scores, labels)
		shifted := make([]float64, len(scores))
		for i, v := range scores {
			shifted[i] = 3*v + 7 // strictly monotone
		}
		b := AUC(shifted, labels)
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); s != 0.5 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(1000); s != 1 {
		t.Errorf("Sigmoid(1000) = %v, want 1", s)
	}
	if s := Sigmoid(-1000); s != 0 {
		t.Errorf("Sigmoid(-1000) = %v, want 0", s)
	}
	if math.Abs(Sigmoid(2)+Sigmoid(-2)-1) > 1e-15 {
		t.Error("Sigmoid(x) + Sigmoid(-x) != 1")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[uint64]uint64{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Distinct inputs must produce distinct outputs (spot check).
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 100000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}
