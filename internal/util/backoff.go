package util

import (
	"math/rand"
	"time"
)

// Backoff is the jittered exponential backoff before retry number attempt
// (1-based): lo doubling per attempt, capped at hi, then jittered ±50% so
// a fleet of clients retrying one target does not move in lockstep. The
// result lies in [d/2, 3d/2) for d = min(lo·2^min(attempt−1, 7), hi).
func Backoff(attempt int, lo, hi time.Duration) time.Duration {
	d := min(lo<<min(max(attempt-1, 0), 7), hi)
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}
