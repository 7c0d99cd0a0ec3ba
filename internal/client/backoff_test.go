package client

import (
	"context"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// TestRedialBackoff pins the redial breaker: when the pool's host dies,
// checkout attempts do not each dial — the first failure opens a jittered
// backoff window and the rest fail fast on the cached error, and the pool
// heals on the first checkout after the host returns.
func TestRedialBackoff(t *testing.T) {
	dir := t.TempDir()
	reg := server.NewRegistry(server.RegistryConfig{
		DefaultShards: 1,
		DefaultBound:  -1,
		Name:          "backoff-test",
		Opener: func(id string, dim, shards int, bound int64) (kv.Store, error) {
			return kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
				Dir: filepath.Join(dir, id), Shards: shards, ValueSize: dim * 4,
				RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
				StalenessBound: bound,
			}, "backoff-test")
		},
	})
	defer reg.Close()
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()

	var failDials atomic.Bool
	var mu sync.Mutex
	var live []net.Conn
	cl, err := Dial(ln.Addr().String(), Options{
		Conns:       1,
		DialTimeout: time.Second,
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			if failDials.Load() {
				return nil, &net.OpError{Op: "dial", Err: context.DeadlineExceeded}
			}
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			live = append(live, nc)
			mu.Unlock()
			return nc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Kill the host from the client's point of view: future dials fail and
	// the pooled connection is severed so its slot reads as broken.
	failDials.Store(true)
	mu.Lock()
	for _, nc := range live {
		nc.Close()
	}
	mu.Unlock()

	// Wait for the reader goroutine to mark the connection broken.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := cl.connAt(0); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pooled connection never went broken after close")
		}
		time.Sleep(time.Millisecond)
	}

	// A burst of checkouts against the dead host: every one must fail, and
	// almost all must be breaker fast-fails, not fresh dial attempts.
	const burst = 40
	var backoffErrs int
	for i := 0; i < burst; i++ {
		_, err := cl.connAt(0)
		if err == nil {
			t.Fatal("checkout succeeded against a dead host")
		}
		if strings.Contains(err.Error(), "backing off") {
			backoffErrs++
		}
	}
	var st stats.Counters
	cl.AddCounters(&st)
	retries, backoffs := st.DialRetries, st.DialBackoffs
	if retries == 0 {
		t.Fatal("no redial was ever attempted")
	}
	if retries > burst/2 {
		t.Fatalf("redial tight loop: %d dials for %d checkouts", retries, burst)
	}
	if backoffs == 0 || backoffErrs == 0 {
		t.Fatalf("breaker never engaged: backoffs=%d backoffErrs=%d", backoffs, backoffErrs)
	}

	// Host returns: the pool must heal within a couple of backoff windows.
	failDials.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.connAt(0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never healed after the host returned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st = stats.Counters{}
	cl.AddCounters(&st)
	if st.DialRetries <= retries {
		t.Fatalf("healing did not record a retry: %d -> %d", retries, st.DialRetries)
	}
}
