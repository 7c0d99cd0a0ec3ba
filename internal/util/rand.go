// Package util provides small shared helpers: deterministic random number
// generation, skewed-distribution samplers, hashing, statistics, and
// durable metadata writes used by the storage engine, workload generators,
// and benchmark harness.
package util

import "math"

// RNG is a splitmix64 pseudo-random number generator. It is deterministic,
// allocation-free, and fast enough to sit on benchmark hot paths. It is not
// safe for concurrent use; give each goroutine its own RNG (see Split).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from the current state. The parent
// stream advances by one step, so repeated Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("util: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless bounded sampling, without the rejection
	// loop; the bias is below 2^-32 for the n used in this repository.
	hi, _ := mul64(r.Uint64(), n)
	return hi
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate using the polar method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}
