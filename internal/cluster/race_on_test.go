//go:build race

package cluster_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
