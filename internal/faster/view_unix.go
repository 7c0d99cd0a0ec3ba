//go:build unix

package faster

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
)

// viewWindow is the stride between the file offsets of two consecutive
// windows of the log's read-only mapping. A multiple of every OS page size
// the mapping can meet, so each window starts page-aligned.
const viewWindow = 1 << 26

// logView is the read side of the log file on unix: a read-only MAP_SHARED
// mapping, kept as a copy-on-write directory of fixed-size windows (the
// pattern of index.chunks). Window i maps file bytes [i·viewWindow,
// i·viewWindow + viewWindow + recSize): each overlaps the next by one record,
// so no record straddles two windows and a read is one copy out of one
// window. Windows are added by cover and unmapped only by close; a reader
// holds no lock. A window is advised random access: a disk-region read
// wants its one record's page, and the default read-around would fetch
// 128 KiB around every cold record (BenchmarkDiskRead/cold measured it at
// ~6× the cost of the page alone). Recovery's scan advises sequential
// access for its duration.
type logView struct {
	fd      int
	recSize int
	mu      sync.Mutex // serializes cover
	wins    atomic.Pointer[[][]byte]
}

func newLogView(f *os.File, recSize int) *logView {
	v := &logView{fd: int(f.Fd()), recSize: recSize}
	v.wins.Store(new([][]byte))
	return v
}

// cover maps every window a record ending at or below byte end can lie in.
// The flusher calls it before it publishes a flushed page and recovery
// before it publishes the head, so every address a reader can reach below
// the head is mapped before the reader can reach it. Mapping past the end
// of the file is allowed; those bytes become readable as the file grows.
func (v *logView) cover(end int64) error {
	if end <= 0 {
		return nil
	}
	need := int((end-1)/viewWindow) + 1
	if len(*v.wins.Load()) >= need {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := *v.wins.Load()
	if len(cur) >= need {
		return nil
	}
	grown := make([][]byte, len(cur), need)
	copy(grown, cur)
	for i := len(cur); i < need; i++ {
		w, err := syscall.Mmap(v.fd, int64(i)*viewWindow, viewWindow+v.recSize, syscall.PROT_READ, syscall.MAP_SHARED)
		if err != nil {
			v.wins.Store(&grown) // keep what was mapped so close unmaps it
			return fmt.Errorf("faster: map log window %d: %w", i, err)
		}
		advise(w, adviseRandom)
		grown = append(grown, w)
	}
	v.wins.Store(&grown)
	return nil
}

// advise applies advice to every mapped window (best effort).
func (v *logView) advise(advice int) {
	for _, w := range *v.wins.Load() {
		advise(w, advice)
	}
}

// readAt copies len(buf) bytes (at most one record) at file offset off out
// of the mapping. A fault in the copy — the file was truncated behind the
// store, or the device failed to page the bytes in — is returned as an
// error, as a failed pread would be, instead of crashing the process.
func (v *logView) readAt(buf []byte, off int64) (err error) {
	wins := *v.wins.Load()
	i := off / viewWindow
	if i >= int64(len(wins)) {
		return fmt.Errorf("offset %d is past the mapped log", off)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("fault at %#x in the mapped log (file truncated or unreadable)", f.Addr())
		}
	}()
	copy(buf, wins[i][off-i*viewWindow:])
	return nil
}

// close unmaps every window. The store is quiesced: no reader is left.
func (v *logView) close() error {
	wins := *v.wins.Swap(new([][]byte))
	var first error
	for _, w := range wins {
		if err := syscall.Munmap(w); err != nil && first == nil {
			first = err
		}
	}
	return first
}
