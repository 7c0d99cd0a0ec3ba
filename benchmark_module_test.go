package mlkv_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets runs `go vet .` in benchmark/, its own module
// (benchmark/go.mod replaces this repo with ../), so `go test ./...` here
// compiles it too. A change to a package the benchmark imports that breaks
// its build fails here rather than as a failed first run of
// benchmark/run.sh, which builds the module before it measures anything.
func TestBenchmarkModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", ".")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet . in benchmark/: %v\n%s", err, out)
	}
}
