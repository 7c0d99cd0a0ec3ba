package data

import (
	"math"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

func TestCTRGenShapes(t *testing.T) {
	g := NewCTRGen(CTRConfig{Fields: 5, DenseDim: 3, FieldCard: 100, Seed: 1})
	s := g.Next()
	if len(s.Dense) != 3 || len(s.Keys) != 5 {
		t.Fatalf("sample shape: %d dense, %d keys", len(s.Dense), len(s.Keys))
	}
	for f, k := range s.Keys {
		if k < uint64(f)*100 || k >= uint64(f+1)*100 {
			t.Fatalf("field %d key %d outside its range", f, k)
		}
	}
}

func TestCTRLabelsCorrelateWithLatentWeights(t *testing.T) {
	g := NewCTRGen(CTRConfig{Fields: 4, DenseDim: 2, FieldCard: 1000, Seed: 2, NoiseStd: 0.1})
	// Empirical check: samples whose total latent weight is high must be
	// positive more often than samples where it is low.
	var hiPos, hiTot, loPos, loTot float64
	for i := 0; i < 20000; i++ {
		s := g.Next()
		w := 0.0
		for _, k := range s.Keys {
			w += g.latentWeight(k)
		}
		if w > 1 {
			hiTot++
			if s.Label == 1 {
				hiPos++
			}
		} else if w < -1 {
			loTot++
			if s.Label == 1 {
				loPos++
			}
		}
	}
	if hiTot < 100 || loTot < 100 {
		t.Fatalf("degenerate split: %v hi, %v lo", hiTot, loTot)
	}
	if hiPos/hiTot < loPos/loTot+0.2 {
		t.Fatalf("labels uncorrelated with planted weights: hi %.3f lo %.3f", hiPos/hiTot, loPos/loTot)
	}
}

func TestCTRZipfSkewsKeys(t *testing.T) {
	g := NewCTRGen(CTRConfig{Fields: 1, FieldCard: 10000, Zipf: 0.99, Seed: 3})
	counts := make(map[uint64]int)
	for i := 0; i < 20000; i++ {
		counts[g.Next().Keys[0]]++
	}
	if len(counts) > 6000 {
		t.Fatalf("no skew: %d distinct keys in 20000 draws", len(counts))
	}
}

func TestKGGenStructure(t *testing.T) {
	g := NewKGGen(KGConfig{Entities: 5000, Relations: 8, Clusters: 16, Seed: 4})
	for i := 0; i < 1000; i++ {
		tr := g.Next()
		if !g.IsTrue(tr) {
			t.Fatalf("generated triple violates planted structure: %+v", tr)
		}
		if tr.H >= 5000 || tr.T >= 5000 || tr.R >= 8 {
			t.Fatalf("triple out of range: %+v", tr)
		}
		neg := g.NegativeTail(tr)
		if g.IsTrue(Triple{H: tr.H, R: tr.R, T: neg}) {
			t.Fatalf("negative tail %d is actually positive", neg)
		}
	}
}

func TestKGDeterministicClusters(t *testing.T) {
	g1 := NewKGGen(KGConfig{Entities: 1000, Seed: 5})
	g2 := NewKGGen(KGConfig{Entities: 1000, Seed: 5})
	for e := uint64(0); e < 100; e++ {
		if g1.clusterOf(e) != g2.clusterOf(e) {
			t.Fatal("cluster assignment not deterministic")
		}
	}
}

func TestGraphGenLabelsBalanced(t *testing.T) {
	g := NewGraphGen(GraphConfig{Nodes: 10000, Classes: 4, Seed: 6})
	counts := make([]int, 4)
	for v := uint64(0); v < 10000; v++ {
		counts[g.Label(v)]++
	}
	for c, n := range counts {
		if math.Abs(float64(n)-2500) > 300 {
			t.Fatalf("class %d has %d nodes, want ~2500", c, n)
		}
	}
}

func TestGraphNeighborsHomophilous(t *testing.T) {
	g := NewGraphGen(GraphConfig{Nodes: 10000, Classes: 4, Homophily: 0.9, Seed: 7})
	same, total := 0, 0
	for v := uint64(0); v < 500; v++ {
		for _, u := range g.SampleNeighbors(v, 8, 0) {
			if u == v {
				t.Fatal("self-loop sampled")
			}
			total++
			if g.Label(u) == g.Label(v) {
				same++
			}
		}
	}
	if frac := float64(same) / float64(total); frac < 0.8 {
		t.Fatalf("homophily %.3f, want >= 0.8", frac)
	}
}

func TestGraphNeighborsDeterministicPerSalt(t *testing.T) {
	g := NewGraphGen(GraphConfig{Nodes: 1000, Seed: 8})
	a := g.SampleNeighbors(5, 4, 1)
	b := g.SampleNeighbors(5, 4, 1)
	c := g.SampleNeighbors(5, 4, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same salt must give same neighbors")
		}
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different salts should give different samples")
	}
}

func TestGeneratorsDeterministicAcrossRuns(t *testing.T) {
	a := NewCTRGen(CTRConfig{Seed: 42})
	b := NewCTRGen(CTRConfig{Seed: 42})
	for i := 0; i < 100; i++ {
		sa, sb := a.Next(), b.Next()
		if sa.Label != sb.Label || sa.Keys[0] != sb.Keys[0] {
			t.Fatal("CTR generator not deterministic")
		}
	}
	_ = util.Mix64(0)
}
