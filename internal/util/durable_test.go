package util

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteDurable: the helper replaces an existing file, leaves nothing
// but the target behind, and reports a failed rename with the old target
// and no temp file left.
func TestWriteDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "META")
	for _, want := range []string{"first\n", "second\n"} {
		if err := WriteDurable(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	assertOnly := func(dir string, names ...string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != len(names) {
			t.Fatalf("%s holds %d entries, want %v", dir, len(ents), names)
		}
		for i, e := range ents {
			if e.Name() != names[i] {
				t.Fatalf("%s holds %q, want %v", dir, e.Name(), names)
			}
		}
	}
	assertOnly(dir, "META")

	// A non-empty directory at the target makes the rename fail.
	blocked := filepath.Join(dir, "BLOCKED")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteDurable(blocked, []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	assertOnly(dir, "BLOCKED", "META")
	assertOnly(blocked, "child")
}
