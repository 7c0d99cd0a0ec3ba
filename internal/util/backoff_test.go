package util

import (
	"testing"
	"time"
)

func TestBackoffRange(t *testing.T) {
	const lo, hi = 10 * time.Millisecond, time.Second
	for attempt := 1; attempt <= 12; attempt++ {
		d := min(lo<<min(attempt-1, 7), hi)
		for i := 0; i < 200; i++ {
			if b := Backoff(attempt, lo, hi); b < d/2 || b >= d/2+d {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, b, d/2, d/2+d)
			}
		}
	}
	// The doubling stops at 2^7 even when hi would allow more.
	if b := Backoff(20, time.Millisecond, time.Hour); b >= 192*time.Millisecond {
		t.Fatalf("attempt 20 backoff %v, want the 2^7 cap: under 192ms", b)
	}
}
