package mlkv_test

import (
	"math"
	"testing"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/ycsb"
)

// TestYCSBOnEveryTarget runs the YCSB harness through the public API on
// every target — a local directory, one server and a three-node cluster —
// from the same code. The load must read back bit for bit, the zipfian
// 50/50 mix must run its ops in that proportion, and the model's counters
// must have seen every loaded row.
func TestYCSBOnEveryTarget(t *testing.T) {
	const (
		dim     = 16
		records = 2000
		maxOps  = 4000
		seed    = 7
	)
	withTargets(t, func(t *testing.T, db *mlkv.DB) {
		m, err := db.Open("ycsb", dim, mlkv.WithStalenessBound(mlkv.ASP), mlkv.WithExpectedKeys(records))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()

		// Load, then Peek every key back: present and bit-equal to the row
		// Load wrote.
		if err := ycsb.Load(m, records, seed); err != nil {
			t.Fatal(err)
		}
		s, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, want := make([]float32, dim), make([]float32, dim)
		for k := uint64(0); k < records; k++ {
			found, err := s.Peek(k, got)
			if err != nil || !found {
				t.Fatalf("key %d after load: found=%v err=%v", k, found, err)
			}
			ycsb.FillValue(want, k, seed)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("key %d float %d = %v, want %v (as loaded)", k, i, got[i], want[i])
				}
			}
		}

		// Run the mix on the loaded keys.
		res, err := ycsb.Run(ycsb.Options{
			Model: m, Records: records, Threads: 2,
			ReadFraction: 0.5, Dist: ycsb.Zipfian, MaxOps: maxOps, Seed: seed,
			SkipLoad: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops < maxOps || res.Reads == 0 || res.Updates == 0 {
			t.Fatalf("ops=%d reads=%d updates=%d, want >= %d ops with both classes", res.Ops, res.Reads, res.Updates, maxOps)
		}
		if frac := float64(res.Reads) / float64(res.Reads+res.Updates); math.Abs(frac-0.5) > 0.05 {
			t.Fatalf("read fraction %.3f, want 0.5 ± 0.05", frac)
		}

		// The model counted every loaded row as a put.
		if st := m.Stats(); st.Puts < records {
			t.Fatalf("Stats().Puts = %d, want >= %d (the load)", st.Puts, records)
		}
	})
}
