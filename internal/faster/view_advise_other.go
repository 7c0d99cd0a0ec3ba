//go:build !linux

package faster

// The standard library offers madvise on Linux only; elsewhere a mapping
// keeps the kernel's default readahead.
const (
	adviseRandom = iota
	adviseSequential
)

func advise([]byte, int) {}
