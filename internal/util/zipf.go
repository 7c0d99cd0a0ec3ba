package util

import "math"

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^theta, matching the popularity skew of the YCSB "zipfian" request
// distribution and of categorical-feature frequencies in click logs.
//
// The implementation follows Gray et al.'s "Quickly Generating
// Billion-Record Synthetic Databases" (the same derivation YCSB uses), which
// samples in O(1) per draw after an O(min(n, 2^20)) constant setup, the sum
// zeta(n); WithRNG reuses that setup for another stream.
type Zipf struct {
	rng     *RNG
	n       uint64
	theta   float64
	alpha   float64
	zetan   float64
	eta     float64
	half    float64 // zeta(2, theta)
	rank1Lo float64 // 1 + 0.5^theta: the CDF boundary between ranks 1 and 2
}

// NewZipf returns a sampler over [0, n) with skew theta (0 < theta < 1;
// YCSB's default is 0.99). n must be positive.
func NewZipf(rng *RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("util: NewZipf with n == 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("util: NewZipf theta must be in (0, 1)")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.half = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	z.rank1Lo = 1 + math.Pow(0.5, theta)
	return z
}

// WithRNG returns a sampler over z's distribution that draws from rng,
// sharing z's constants instead of summing zeta(n) again.
func (z *Zipf) WithRNG(rng *RNG) *Zipf {
	c := *z
	c.rng = rng
	return &c
}

// Next draws one sample. Item 0 is the most popular.
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1Lo {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	// Exact for small n; for large n, integrate the tail. The approximation
	// error is far below the sampling noise of any workload in this repo.
	const exact = 1 << 20
	if n <= exact {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	head := zeta(exact, theta)
	// Integral of x^-theta from exact to n.
	tail := (math.Pow(float64(n), 1-theta) - math.Pow(float64(exact), 1-theta)) / (1 - theta)
	return head + tail
}

// ScrambledZipf composes Zipf popularity with an FNV-style hash so that hot
// items are spattered across the key space instead of clustered at low IDs,
// matching YCSB's "scrambled zipfian" distribution.
type ScrambledZipf struct {
	z *Zipf
	n uint64
}

// NewScrambledZipf returns a scrambled sampler over [0, n).
func NewScrambledZipf(rng *RNG, n uint64, theta float64) *ScrambledZipf {
	return &ScrambledZipf{z: NewZipf(rng, n, theta), n: n}
}

// Next draws one sample in [0, n).
func (s *ScrambledZipf) Next() uint64 {
	// HashKey rather than bare Mix64: Mix64(0) == 0, which would leave the
	// hottest rank parked at key 0 instead of scattering it.
	return HashKey(s.z.Next()) % s.n
}
