package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
)

const modelID = "bench"

// serverProc is one mlkv-server subprocess.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	debug string
	done  chan struct{} // closed when the process has been reaped
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the server binds it; nothing else on the box is racing
// for loopback ports while the benchmark runs.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches mlkv-server on fresh ports and returns once it
// accepts connections. Its log goes to <dir>.log.
func startServer(env *env, dir string, args ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debug, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.Command(env.serverBin, append([]string{"-addr", addr, "-debug-addr", debug, "-dir", dir}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", env.serverBin, err)
	}
	s := &serverProc{cmd: cmd, addr: addr, debug: debug, done: make(chan struct{})}
	env.track(s, true)
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is not a result; readiness and the run's own checks are
		env.track(s, false)
		close(s.done)
	}()
	for _, a := range []string{addr, debug} {
		if err := s.waitDial(a); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

func (s *serverProc) waitDial(addr string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("mlkv-server on %s exited during start-up (see its .log)", s.addr)
		default:
		}
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("mlkv-server on %s not reachable at %s after 10s", s.addr, addr)
}

// hwmKB reads the process's peak resident set from /proc.
func hwmKB(pid int) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// stop terminates the server (SIGTERM, then SIGKILL after 5 s), waits
// until it has ended, and returns its peak RSS in KiB.
func (s *serverProc) stop() int64 {
	kb := hwmKB(s.cmd.Process.Pid)
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck
		<-s.done
	}
	return kb
}

// vars fetches the server's /debug/vars.
func (s *serverProc) vars() (map[string]json.RawMessage, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + s.debug + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /debug/vars of %s: %w", s.addr, err)
	}
	return out, nil
}

// target is one opened storage target: a local directory, one server,
// or the three-node cluster, with the benchmark's model open on it.
type target struct {
	kind    targetKind
	dir     string
	servers []*serverProc // cluster: n0, n1, n2 (replica of n0)
	db      *mlkv.DB
	model   *mlkv.Model
}

// targetOpts are the store settings a rung may vary.
type targetOpts struct {
	kind   targetKind
	shards int
	cache  int
}

func (sp *spec) opts() targetOpts {
	return targetOpts{kind: sp.target, shards: sp.shards, cache: sp.cache}
}

// openTarget starts whatever servers the kind needs under dir, connects,
// and opens the model with the workload's sizing.
func openTarget(env *env, sp *spec, dir string, o targetOpts) (*target, error) {
	t := &target{kind: o.kind, dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	connect := dir
	if o.kind != targetLocal {
		args := []string{
			"-shards", strconv.Itoa(o.shards),
			"-buffer-mb", strconv.FormatInt(max(sp.memory>>20, 1), 10),
			"-records", strconv.Itoa(sp.records),
			"-cache", strconv.Itoa(o.cache),
		}
		start := func(name string, extra ...string) error {
			s, err := startServer(env, filepath.Join(dir, name), append(args, extra...)...)
			if err != nil {
				return err
			}
			t.servers = append(t.servers, s)
			return nil
		}
		var err error
		if o.kind == targetLoopback {
			err = start("n0")
			if err == nil {
				connect = mlkv.Scheme + t.servers[0].addr
			}
		} else {
			if err = start("n0", "-cluster", "n0"); err == nil {
				seed := t.servers[0].addr
				if err = start("n1", "-cluster", "n1", "-join", seed); err == nil {
					err = start("n2", "-cluster", "n2", "-join", seed, "-replica-of", "n0")
				}
			}
			if err == nil {
				connect = mlkv.Scheme + t.servers[0].addr + "," + t.servers[1].addr
			}
		}
		if err != nil {
			t.close()
			return nil, err
		}
	}
	db, err := mlkv.Connect(connect, mlkv.WithConns(sp.sessions))
	if err != nil {
		t.close()
		return nil, err
	}
	t.db = db
	mopts := []mlkv.Option{
		mlkv.WithStalenessBound(sp.bound),
		mlkv.WithMemory(sp.memory),
		mlkv.WithExpectedKeys(uint64(sp.records)),
		mlkv.WithShards(o.shards),
	}
	if o.kind == targetLocal && o.cache > 0 {
		// Remote targets use the server's shared tier (-cache), whose
		// clock sees every client.
		mopts = append(mopts, mlkv.WithCache(o.cache))
	}
	t.model, err = db.Open(modelID, sp.dim, mopts...)
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close closes the model and DB, stops every server, and returns the sum
// of the servers' peak RSS in KiB. Safe on a partly opened target.
func (t *target) close() (serverKB int64, err error) {
	if t.model != nil {
		err = t.model.Close()
		t.model = nil
	}
	if t.db != nil {
		if cerr := t.db.Close(); err == nil {
			err = cerr
		}
		t.db = nil
	}
	for _, s := range t.servers {
		serverKB += s.stop()
	}
	t.servers = nil
	return serverKB, err
}

// diskBytes sums the regular files under the target's data directory,
// leaving out the server logs the harness itself writes there.
func (t *target) diskBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(t.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() && !strings.HasSuffix(path, ".log") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
