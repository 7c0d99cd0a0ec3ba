//go:build !race

package cluster_test

// raceEnabled reports whether the race detector instruments this build;
// the routing allocation gate skips under it (sync.Pool drops items at
// random under -race, which perturbs the counts on both sides).
const raceEnabled = false
