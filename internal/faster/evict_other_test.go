//go:build !(linux && (amd64 || arm64))

package faster

import "errors"

// evictLog is Linux-only (see evict_linux_test.go).
func evictLog(*Store) error { return errors.New("no page-cache eviction on this platform") }
