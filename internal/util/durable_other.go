//go:build !unix

package util

// syncDir is a no-op here: not every such platform can fsync a directory.
func syncDir(string) error { return nil }
