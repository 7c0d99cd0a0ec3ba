//go:build linux && (amd64 || arm64)

package faster

import "syscall"

// evictLog drops the store's log file from the page cache. The pages the
// store's mapping has faulted in are mapped, and the kernel keeps mapped
// pages, so the mapping's page-table entries go first (MADV_DONTNEED on a
// shared file mapping leaves the file untouched; the next read refaults).
// The store must be idle.
func evictLog(st *Store) error {
	for _, w := range *st.log.view.wins.Load() {
		if err := syscall.Madvise(w, syscall.MADV_DONTNEED); err != nil {
			return err
		}
	}
	const fadvDontNeed = 4 // POSIX_FADV_DONTNEED
	if _, _, e := syscall.Syscall6(syscall.SYS_FADVISE64, st.log.file.Fd(), 0, 0, fadvDontNeed, 0, 0); e != 0 {
		return e
	}
	return nil
}
