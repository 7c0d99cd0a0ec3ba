// Command benchmark is the repo's benchmark: four closed-loop workloads
// driven through the public mlkv package, the mlkv-server binary and
// train.TrainCTR, with end-to-end metrics (--trace 0) and a traced pass
// that attributes time to layers from outside (--trace 1). README.md in
// this directory is the contract; BENCHMARK.json at the repo root is its
// index.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (README.md lists them)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured section")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		server   = flag.String("server-bin", "", "mlkv-server binary (default: built into -work)")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for data dirs, server logs and trace.jsonl")
		div      = flag.Int("div", 1, "shrink every size by this further factor (smoke tests)")
		runs     = flag.Int("runs", 0, "run every workload this many times and write an envelope with median/min/max to -out")
		out      = flag.String("out", "", "envelope file of -runs")
		compare  = flag.Bool("compare", false, "compare two envelopes: -compare old.json new.json")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as the program's lists have it")
		detailTo = flag.String("detail", "", "also write the run's detail as JSON to this file")
	)
	flag.Parse()

	switch {
	case *contract:
		printContract(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare old.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	env := &env{serverBin: *server, workDir: *work, div: *div}
	// A driver that gives up on a run signals it; the servers must not
	// outlive it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		env.killServers()
		os.Exit(1)
	}()
	if err := os.MkdirAll(env.workDir, 0o755); err != nil {
		fatal("%v", err)
	}
	if env.serverBin == "" {
		bin, err := buildServer(env.workDir)
		if err != nil {
			fatal("%v", err)
		}
		env.serverBin = bin
	}
	d := time.Duration(*seconds * float64(time.Second))

	if *runs > 0 {
		if *out == "" {
			fatal("-runs needs -out")
		}
		if err := runEnvelope(env, *runs, *seed, d, *out); err != nil {
			fatal("%v", err)
		}
		return
	}

	sp := specByName(*name)
	if sp == nil {
		fatal("unknown workload %q", *name)
	}
	res, err := runGuarded(env, sp, *seed, d, *trace != 0)
	if err != nil {
		env.killServers() // whatever an abandoned set-up left running
		fatal("%s: %v", sp.name, err)
	}
	report(os.Stderr, res)
	if *detailTo != "" {
		if err := writeJSON(*detailTo, res.Detail); err != nil {
			fatal("%v", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// maxWall is the wall-clock guard of one run, under the driver's 180 s.
const maxWall = 170 * time.Second

// runGuarded runs one workload once under the guard: a run that hangs
// must not outlive the driver's patience or leave servers behind.
func runGuarded(env *env, sp *spec, seed uint64, d time.Duration, traced bool) (*result, error) {
	type outcome struct {
		res *result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		if traced {
			o.res, o.err = runTraced(env, sp, seed, d)
		} else {
			o.res, o.err = runEndToEnd(env, sp, seed, d)
		}
		done <- o
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(maxWall):
		return nil, fmt.Errorf("no result after %v; servers stopped", maxWall)
	}
}

// buildServer compiles cmd/mlkv-server into dir. The benchmark is its
// own module with the repo as a replaced dependency, so the package path
// resolves from this module's directory (or from the repo root, when the
// benchmark is run from there with `go run -C benchmark .`).
func buildServer(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "mlkv-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "github.com/llm-db/mlkv-go/cmd/mlkv-server")
	if _, err := os.Stat("go.mod"); err != nil {
		cmd.Dir = "benchmark"
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build mlkv-server: %v\n%s", err, out)
	}
	return bin, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
