package main

import (
	"math"
	"slices"
	"time"
)

// window is the slice of a run over which a rate and a percentile are
// taken; a run reports the median over its windows, so one disturbed
// window (a noisy neighbour, a stray GC) does not decide the result,
// while periodic background work — flushes, GC cycles, heartbeats — is
// in every window and stays in the numbers. Two seconds holds at least
// 1000 calls of the slowest workload, so a window's p99 has ten samples
// beyond it.
const window = 2 * time.Second

// series is one caller's timings, cut into windows as they arrive.
type series struct {
	win   time.Duration
	durs  [2][]int64 // [0] writes, [1] reads: call durations in ns
	marks [2][]int   // marks[c][w] = len(durs[c]) when window w began
	units []int64    // keys (or samples) completed per window
}

// newSeries sizes the buffers for d at several times the call rate of
// the fastest workload, so the timed loop does not grow them.
func newSeries(d, win time.Duration) *series {
	const maxCallsPerSec = 100_000
	n := int(d.Seconds()*maxCallsPerSec) + 1024
	w := int(d/win) + 2
	s := &series{win: win, units: make([]int64, 1, w)}
	for c := range s.durs {
		s.durs[c] = make([]int64, 0, n)
		s.marks[c] = append(make([]int, 0, w), 0)
	}
	return s
}

func class(read bool) int {
	if read {
		return 1
	}
	return 0
}

// add records one call that ended at offset end from the run's start.
func (s *series) add(read bool, end, dur time.Duration, units int64) {
	for w := int(end / s.win); len(s.units) <= w; {
		s.units = append(s.units, 0)
		for c := range s.marks {
			s.marks[c] = append(s.marks[c], len(s.durs[c]))
		}
	}
	c := class(read)
	s.durs[c] = append(s.durs[c], int64(dur))
	s.units[len(s.units)-1] += units
}

// windowDurs returns class c's durations of window w.
func (s *series) windowDurs(c, w int) []int64 {
	if w >= len(s.marks[c]) {
		return nil
	}
	hi := len(s.durs[c])
	if w+1 < len(s.marks[c]) {
		hi = s.marks[c][w+1]
	}
	return s.durs[c][s.marks[c][w]:hi]
}

// timing summarises one class of calls over a run.
type timing struct {
	P50us, P99us float64 // medians over windows of the window's percentile
	// Over the whole run: the highest percentile with at least ten
	// samples beyond it, and the sample count.
	TopPct, TopUs float64
	Count         int
	WindowP99us   []float64 // each window's p99
	RunP99us      float64   // p99 over the whole run
	MeanUs        float64   // mean over the whole run
}

// summary is what the windows of all callers of a run add up to.
type summary struct {
	Windows     int
	UnitsPerSec float64   // median over windows
	WindowRates []float64 // units/s of each window
	Read, Write timing
}

// summarise merges the callers' series over the nWin full windows of the
// run.
func summarise(sers []*series, nWin int) summary {
	sum := summary{Windows: nWin}
	var pooled [2][]int64
	var p50s, p99s [2][]float64
	for w := 0; w < nWin; w++ {
		var units int64
		for c := 0; c < 2; c++ {
			var all []int64
			for _, s := range sers {
				all = append(all, s.windowDurs(c, w)...)
			}
			if len(all) == 0 {
				continue
			}
			slices.Sort(all)
			p50s[c] = append(p50s[c], pctUs(all, 50))
			p99s[c] = append(p99s[c], pctUs(all, 99))
			pooled[c] = append(pooled[c], all...)
		}
		for _, s := range sers {
			if w < len(s.units) {
				units += s.units[w]
			}
		}
		sum.WindowRates = append(sum.WindowRates, float64(units)/sers[0].win.Seconds())
	}
	sum.UnitsPerSec = median(sum.WindowRates)
	for c, t := range []*timing{&sum.Write, &sum.Read} {
		if len(pooled[c]) == 0 {
			continue
		}
		slices.Sort(pooled[c])
		t.Count = len(pooled[c])
		t.P50us, t.P99us = median(p50s[c]), median(p99s[c])
		t.TopPct = topPercentile(t.Count)
		t.TopUs = pctUs(pooled[c], t.TopPct)
		t.WindowP99us, t.RunP99us = p99s[c], pctUs(pooled[c], 99)
		t.MeanUs = meanUs(pooled[c])
	}
	return sum
}

// pctUs reads percentile p (0–100) off sorted nanosecond samples, in µs.
func pctUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / 1e3
}

// topPercentile is the highest of p50, p90, p99, p99.9, … that leaves at
// least ten of n samples beyond it.
func topPercentile(n int) float64 {
	top := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99, 99.999} {
		if float64(n)*(100-p)/100 >= 10 {
			top = p
		}
	}
	return top
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func meanUs(durs []int64) float64 {
	if len(durs) == 0 {
		return 0
	}
	var t int64
	for _, d := range durs {
		t += d
	}
	return float64(t) / float64(len(durs)) / 1e3
}
