package faster

import "syscall"

// Access-pattern advice for the log's mapping (see logView).
const (
	adviseRandom     = syscall.MADV_RANDOM
	adviseSequential = syscall.MADV_SEQUENTIAL
)

// advise passes advice for w to the kernel. It only steers readahead, so a
// failure is ignored.
func advise(w []byte, advice int) { _ = syscall.Madvise(w, advice) }
