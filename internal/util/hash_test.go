package util

import "testing"

func TestShardOfUniformDistribution(t *testing.T) {
	const shards = 8
	const keys = 1 << 20
	counts := make([]int, shards)
	for k := uint64(0); k < keys; k++ {
		sh := ShardOf(k, shards)
		if sh < 0 || sh >= shards {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", k, shards, sh)
		}
		counts[sh]++
	}
	mean := float64(keys) / shards
	for sh, c := range counts {
		dev := (float64(c) - mean) / mean
		if dev < -0.02 || dev > 0.02 {
			t.Fatalf("shard %d holds %d keys, %.1f%% from the mean %f", sh, c, dev*100, mean)
		}
	}
	// One shard must collapse to index 0 without hashing.
	if ShardOf(12345, 1) != 0 {
		t.Fatal("ShardOf with one shard must return 0")
	}
}
