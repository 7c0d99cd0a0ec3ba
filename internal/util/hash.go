package util

// Mix64 is the splitmix64 finalizer: a fast, high-quality 64-bit mixing
// function used for hashing integer keys into index buckets and for key
// scrambling in workload generators.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashKey hashes a record key for index placement. Kept separate from Mix64
// so the index's hash can evolve without perturbing workload generators.
func HashKey(key uint64) uint64 {
	return Mix64(key ^ 0x9e3779b97f4a7c15)
}

// ShardOf maps a record key to one of shards hash partitions. It mixes the
// key with a constant distinct from HashKey's so that shard placement and
// in-shard index placement stay uncorrelated; every layer that partitions a
// key space (core's shard router, kv's sharded adapter) must use this one
// function so they agree on placement.
func ShardOf(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(Mix64(key^0xc2b2ae3d27d4eb4f) % uint64(shards))
}

// NextPow2 returns the smallest power of two >= v (and at least 1).
func NextPow2(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	v |= v >> 32
	return v + 1
}

// Grow resizes a reusable scratch slice to n elements without preserving
// contents (callers overwrite the whole slice).
func Grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
