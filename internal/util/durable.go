package util

import (
	"os"
	"path/filepath"
)

// WriteDurable replaces the file at path with data so that, once it
// returns nil, a power loss leaves either the old file or the new one:
// data goes to a fresh temp file beside path and is fsynced, the temp file
// is renamed over path, and the directory is fsynced so the rename itself
// is on disk. On failure the temp file is removed and path is untouched.
// Concurrent writers of one path are safe: each has its own temp file, and
// the last rename wins.
func WriteDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}
