//go:build !unix

package faster

import "os"

// logView is the read side of the log file where no mapping is used: every
// read is a positional read of the file (view_unix.go maps it instead).
type logView struct{ f *os.File }

func newLogView(f *os.File, _ int) *logView { return &logView{f: f} }

func (v *logView) cover(int64) error { return nil }

func (v *logView) readAt(buf []byte, off int64) error {
	_, err := v.f.ReadAt(buf, off)
	return err
}

func (v *logView) close() error { return nil }

func (v *logView) advise(int) {}
