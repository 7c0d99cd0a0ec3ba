// Package latency provides an HDR-style log-bucketed histogram for
// tail-latency tracking on hot paths.
//
// The histogram is a fixed array of atomic counters, so Record is
// wait-free, allocation-free, and safe for any number of concurrent
// writers; Merge folds one histogram into another (cross-shard or
// cross-connection aggregation) with the same guarantees. Snapshot walks
// the buckets once and reports p50/p90/p99/p999 and the exact maximum.
//
// Bucket scheme (values are nanoseconds):
//
//   - v < 128: one bucket per nanosecond (exact).
//   - v >= 128: 64 sub-buckets per power-of-two octave. For a value
//     whose most significant bit is m (>= 7), the sub-bucket is the next
//     6 bits below it, so every bucket spans [low, low + 2^(m-6)) with
//     low >= 64 * 2^(m-6). Reporting the bucket midpoint bounds the
//     relative error of any quantile by half a bucket width over the
//     bucket's low bound: 1/128 (< 1%).
//
// With 57 octaves above the linear range the array has 3776 buckets
// (~30 KiB per histogram) and covers every int64 nanosecond value —
// there is no overflow bucket and no configuration.
package latency

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	sigBits    = 6            // sub-bucket resolution: 2^6 per octave
	linBits    = sigBits + 1  // values below 2^7 are bucketed exactly
	numLinear  = 1 << linBits // 128 exact buckets
	subCount   = 1 << sigBits // 64 sub-buckets per octave
	numOctaves = 64 - linBits // msb 7..63
	numBuckets = numLinear + numOctaves*subCount
)

// Histogram is a fixed-size log-bucketed latency histogram. The zero
// value is ready to use. All methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketIdx maps a non-negative nanosecond value to its bucket.
func bucketIdx(v int64) int {
	if v < numLinear {
		return int(v)
	}
	m := bits.Len64(uint64(v)) - 1 // >= linBits
	sub := int(v>>(m-sigBits)) - subCount
	return numLinear + (m-linBits)*subCount + sub
}

// bucketMid returns the midpoint of bucket i, the value Snapshot reports
// for quantiles that land in it.
func bucketMid(i int) int64 {
	if i < numLinear {
		return int64(i)
	}
	octave := (i - numLinear) / subCount
	sub := (i - numLinear) % subCount
	shift := uint(octave + linBits - sigBits) // m - sigBits, m = octave+linBits
	mid := uint64(subCount+sub)<<shift + uint64(1)<<shift/2
	if mid > math.MaxInt64 {
		return math.MaxInt64 // top octave's upper half overflows int64
	}
	return int64(mid)
}

// Record adds one observation. Negative durations are clamped to zero.
// Record never allocates and never blocks.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Since records the elapsed time from start until now. It is the cheap
// always-on timer helper for hot paths:
//
//	start := time.Now()
//	... do the work ...
//	h.Since(start)
func (h *Histogram) Since(start time.Time) {
	h.Record(time.Since(start))
}

// Reset zeroes the histogram. Not linearizable against concurrent
// writers; intended for tests and between benchmark phases.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Snapshot is a point-in-time summary of a Histogram. All values are
// nanoseconds except Count. The zero Snapshot means "no observations".
type Snapshot struct {
	Count int64
	Sum   int64
	Max   int64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
}

// Mean returns the average observation, or 0 if empty.
func (s Snapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// quantile ranks for Snapshot, in the order the fields are filled.
var quantiles = [...]float64{0.50, 0.90, 0.99, 0.999}

// Snapshot summarizes the current contents. It walks the bucket array
// once; concurrent Records during the walk may or may not be included.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if s.Count == 0 {
		return s
	}
	// Rank for quantile q is ceil(q * count), at least 1.
	var ranks [len(quantiles)]int64
	for i, q := range quantiles {
		r := int64(q * float64(s.Count))
		if float64(r) < q*float64(s.Count) {
			r++
		}
		if r < 1 {
			r = 1
		}
		ranks[i] = r
	}
	out := [len(quantiles)]int64{}
	var cum int64
	qi := 0
	for i := 0; i < numBuckets && qi < len(quantiles); i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		for qi < len(quantiles) && cum >= ranks[qi] {
			out[qi] = bucketMid(i)
			qi++
		}
	}
	// A racing Record can leave the cumulative walk short of the ranks;
	// report the max for any quantile the walk did not reach.
	for ; qi < len(quantiles); qi++ {
		out[qi] = s.Max
	}
	// The midpoint of the top bucket can exceed the true maximum.
	for i := range out {
		if out[i] > s.Max {
			out[i] = s.Max
		}
	}
	s.P50, s.P90, s.P99, s.P999 = out[0], out[1], out[2], out[3]
	return s
}

// Us converts a nanosecond value from a Snapshot to microseconds as a
// float, the unit bench results and human-facing output use.
func Us(ns int64) float64 { return float64(ns) / 1e3 }
