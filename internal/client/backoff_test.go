package client

import (
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/faultnet"
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
		Store: kv.ShardedConfig{
			Dir: dir, RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
			StalenessBound: -1,
		},
		Name: "backoff-test",
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
		if _, err := cl.connAt(context.Background(), 0); err != nil {
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
		_, err := cl.connAt(context.Background(), 0)
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
		if _, err := cl.connAt(context.Background(), 0); err == nil {
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

// TestRedialBackoffCountsExpiredDeadline pins what the breaker counts when
// the caller's context ends the redial: a cancelled caller proves nothing
// about the host and leaves the breaker shut, but a blackholed host that
// outlasts a caller's deadline opens it, so later checkouts fail fast
// instead of each redialling under the pool lock.
func TestRedialBackoffCountsExpiredDeadline(t *testing.T) {
	reg := server.NewRegistry(server.RegistryConfig{
		Store: kv.ShardedConfig{
			Dir: t.TempDir(), RecordsPerPage: 64, MemoryBytes: 1 << 20, ExpectedKeys: 1 << 12,
			StalenessBound: -1,
		},
		Name: "backoff-test",
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
	proxy, err := faultnet.New(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cl, err := Dial(proxy.Addr(), Options{Conns: 1, DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The host goes silent: the pooled connection is severed, and every
	// redial connects but its HELLO is never answered.
	proxy.Blackhole()
	checkout := func(ctx context.Context) error {
		_, err := cl.connAt(ctx, 0)
		return err
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		err := checkout(ctx)
		cancel()
		if err != nil {
			if strings.Contains(err.Error(), "backing off") {
				t.Fatalf("a cancelled redial opened the breaker: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pooled connection never went broken after the blackhole")
		}
		time.Sleep(time.Millisecond)
	}

	// Checkouts with a deadline shorter than DialTimeout: the first still
	// redials (the cancelled one opened no window) and ends on its
	// deadline, which must count, so a later one fails fast. The window
	// doubles per failure, so a few tries outgrow any scheduling delay.
	var st stats.Counters
	cl.AddCounters(&st)
	retries := st.DialRetries
	var fastFail bool
	for i := 0; i < 8 && !fastFail; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		err := checkout(ctx)
		cancel()
		if err == nil {
			t.Fatal("checkout succeeded against a blackholed host")
		}
		fastFail = strings.Contains(err.Error(), "backing off")
		if fastFail && i == 0 {
			t.Fatalf("a cancelled redial opened the breaker: %v", err)
		}
	}
	st = stats.Counters{}
	cl.AddCounters(&st)
	if !fastFail || st.DialBackoffs == 0 {
		t.Fatalf("breaker never opened on expired deadlines: %d redials, %d backoffs",
			st.DialRetries-retries, st.DialBackoffs)
	}
}
