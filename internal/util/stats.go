package util

import (
	"math"
	"sort"
)

// AUC computes the area under the ROC curve for binary labels (1/0) and
// real-valued scores via the rank statistic (Mann-Whitney U). Ties receive
// the average rank. Returns 0.5 when either class is absent.
func AUC(scores []float64, labels []int) float64 {
	n := len(scores)
	if n == 0 || n != len(labels) {
		return 0.5
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Assign average ranks to tied scores.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1 // ranks are 1-based
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var pos, sumPos float64
	for i, l := range labels {
		if l == 1 {
			pos++
			sumPos += ranks[i]
		}
	}
	neg := float64(n) - pos
	if pos == 0 || neg == 0 {
		return 0.5
	}
	u := sumPos - pos*(pos+1)/2
	return u / (pos * neg)
}

// Sigmoid returns 1/(1+e^-x) with guards against overflow.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
