package latency

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketRelativeError is the property behind the whole design: for
// any representable value, the midpoint of the bucket it lands in is
// within 1/128 relative error (and exact below 128ns).
func TestBucketRelativeError(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		idx := bucketIdx(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("value %d: bucket %d out of range [0,%d)", v, idx, numBuckets)
		}
		mid := bucketMid(idx)
		if v < numLinear {
			if mid != v {
				t.Fatalf("value %d: linear bucket should be exact, got mid %d", v, mid)
			}
			return
		}
		relErr := math.Abs(float64(mid-v)) / float64(v)
		if relErr > 1.0/128 {
			t.Fatalf("value %d: bucket mid %d, relative error %.5f > 1/128", v, mid, relErr)
		}
	}
	// Edges: zero, linear/log boundary, powers of two and neighbors, max.
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1 << 20, (1 << 20) + 1, math.MaxInt64 - 1, math.MaxInt64} {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		// Log-uniform draw so every octave gets coverage.
		v := int64(1) << uint(rng.Intn(63))
		v += rng.Int63n(v)
		check(v)
	}
}

// TestBucketMonotone: bucket midpoints are non-decreasing in the bucket
// index, so cumulative-count quantiles are well defined. (The top
// octave's midpoints clamp to MaxInt64, hence non-decreasing rather
// than strictly increasing.)
func TestBucketMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		mid := bucketMid(i)
		if mid < prev {
			t.Fatalf("bucket %d: mid %d < previous %d", i, mid, prev)
		}
		if mid == prev && mid != math.MaxInt64 {
			t.Fatalf("bucket %d: duplicate mid %d below the clamp", i, mid)
		}
		prev = mid
	}
}

func TestSnapshotEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s != (Snapshot{}) {
		t.Fatalf("empty histogram snapshot = %+v, want zero", s)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %d, want 0", s.Mean())
	}
}

func TestSnapshotOneSample(t *testing.T) {
	var h Histogram
	h.Record(1500 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
	want := int64(1500 * time.Microsecond)
	if s.Max != want || s.Sum != want {
		t.Fatalf("Max/Sum = %d/%d, want %d", s.Max, s.Sum, want)
	}
	// Every quantile of a single sample is that sample, within the
	// bucket relative-error bound, and never above the exact max.
	for _, p := range []int64{s.P50, s.P90, s.P99, s.P999} {
		if p > s.Max {
			t.Fatalf("quantile %d above max %d", p, s.Max)
		}
		if relErr := math.Abs(float64(p-want)) / float64(want); relErr > 1.0/128 {
			t.Fatalf("quantiles = %d/%d/%d/%d, want ~%d (err %.5f)", s.P50, s.P90, s.P99, s.P999, want, relErr)
		}
	}
}

func TestSnapshotQuantiles(t *testing.T) {
	var h Histogram
	// 0..9999 microseconds, one sample each: p50 ~ 5ms, p99 ~ 9.9ms.
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("Count = %d", s.Count)
	}
	checks := []struct {
		name string
		got  int64
		want float64
	}{
		{"p50", s.P50, 5000e3}, {"p90", s.P90, 9000e3},
		{"p99", s.P99, 9900e3}, {"p999", s.P999, 9990e3},
	}
	for _, c := range checks {
		if relErr := math.Abs(float64(c.got)-c.want) / c.want; relErr > 0.02 {
			t.Errorf("%s = %d, want ~%.0f (err %.4f)", c.name, c.got, c.want, relErr)
		}
	}
	if s.Max != 9999e3 {
		t.Fatalf("Max = %d, want 9999000", s.Max)
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines (run
// under -race in CI) and checks no observation is lost.
func TestConcurrentRecord(t *testing.T) {
	const (
		writers = 8
		perW    = 20000
	)
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Record(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	// A concurrent reader exercises the lock-free read path while writes
	// are in flight.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = h.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	s := h.Snapshot()
	if s.Count != writers*perW {
		t.Fatalf("Count = %d, want %d", s.Count, writers*perW)
	}
	var bucketSum int64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != writers*perW {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, writers*perW)
	}
	if s.P50 <= 0 || s.P999 < s.P50 || s.Max < s.P999 {
		t.Fatalf("implausible quantiles: %+v", s)
	}
}

func TestOpSet(t *testing.T) {
	var s OpSet
	s.Record(OpGet, time.Millisecond)
	s.Since(OpPutBatch, time.Now().Add(-2*time.Millisecond))
	snaps := s.Snapshot()
	if snaps[OpGet].Count != 1 || snaps[OpPutBatch].Count != 1 {
		t.Fatalf("counts: %+v", snaps)
	}
	if snaps[OpGetBatch].Count != 0 || snaps[OpRMW].Count != 0 {
		t.Fatalf("unrecorded classes not empty: %+v", snaps)
	}
	for op, want := range map[Op]string{OpGet: "get", OpGetBatch: "get_batch", OpPut: "put", OpPutBatch: "put_batch", OpRMW: "rmw"} {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

// BenchmarkRecord documents the hot-path cost; the alloc gate in the
// root package is the hard check that this stays at zero allocations.
func BenchmarkRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}
