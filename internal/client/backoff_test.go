package client

import (
	"context"
	"errors"
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
	cl, err := Dial(context.Background(), ln.Addr().String(), Options{
		Conns:       1,
		DialTimeout: time.Second,
		dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if failDials.Load() {
				return nil, &net.OpError{Op: "dial", Err: context.DeadlineExceeded}
			}
			nc, err := new(net.Dialer).DialContext(ctx, network, addr)
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
	cl, err := Dial(context.Background(), proxy.Addr(), Options{Conns: 1, DialTimeout: 2 * time.Second})
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
		if fastFail && errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("a fast-fail within the caller's deadline reads as that deadline: %v", err)
		}
	}
	st = stats.Counters{}
	cl.AddCounters(&st)
	if !fastFail || st.DialBackoffs == 0 {
		t.Fatalf("breaker never opened on expired deadlines: %d redials, %d backoffs",
			st.DialRetries-retries, st.DialBackoffs)
	}
}

// TestHungRedialStallsOnlyItsSlot pins that a redial runs outside every
// lock: while one slot's dial hangs, a checkout of a healthy slot returns
// at once, a checkout of the hanging slot returns at its own deadline, and
// Close returns at once and ends the hung dial.
func TestHungRedialStallsOnlyItsSlot(t *testing.T) {
	reg := server.NewRegistry(server.RegistryConfig{Name: "hung-dial-test"})
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

	var hang atomic.Bool
	hung := make(chan struct{}, 1)
	var live []net.Conn // in slot order: Dial dials slot 0 first
	cl, err := Dial(context.Background(), ln.Addr().String(), Options{
		Conns:       2,
		DialTimeout: 10 * time.Second,
		dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if hang.Load() {
				hung <- struct{}{}
				<-ctx.Done() // only the redial's own ctx ends it
				return nil, ctx.Err()
			}
			nc, err := new(net.Dialer).DialContext(ctx, network, addr)
			if err == nil {
				live = append(live, nc)
			}
			return nc, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hang.Store(true)
	live[0].Close()
	for deadline := time.Now().Add(2 * time.Second); !cl.slots[0].cn.Load().broken(); {
		if time.Now().After(deadline) {
			t.Fatal("slot 0 never went broken after its conn closed")
		}
		time.Sleep(time.Millisecond)
	}
	redialErr := make(chan error, 1)
	go func() {
		_, err := cl.connAt(context.Background(), 0)
		redialErr <- err
	}()
	<-hung

	start := time.Now()
	if _, err := cl.connAt(context.Background(), 1); err != nil {
		t.Fatalf("healthy slot: %v", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("healthy slot's checkout took %v behind slot 0's hung dial", d)
	}

	const wait = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	start = time.Now()
	_, err = cl.connAt(ctx, 0)
	d := time.Since(start)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) || d < wait || d > 2*wait {
		t.Fatalf("hung slot's checkout returned %v after %v, want its deadline at %v", err, d, wait)
	}

	start = time.Now()
	cl.Close()
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("Close took %v behind a hung dial", d)
	}
	select {
	case err := <-redialErr:
		if err == nil {
			t.Fatal("the hung redial succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not end the hung redial")
	}
}

// TestRedialTimeoutIsTheHostsFailure pins how a redial that runs out its
// own DialTimeout reports, while the caller's deadline is still far off:
// the checkout returns at DialTimeout, and its error is a transport
// failure — neither context.DeadlineExceeded nor context.Canceled, nor a
// server's or unacked reply (cluster.transportFailure's test) — so a
// cluster router retries and fails over instead of reading the dead host
// as the caller's deadline and parking the caller until it.
func TestRedialTimeoutIsTheHostsFailure(t *testing.T) {
	reg := server.NewRegistry(server.RegistryConfig{Name: "dial-timeout-test"})
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

	const dialTimeout = 100 * time.Millisecond
	var hang atomic.Bool
	var live net.Conn
	cl, err := Dial(context.Background(), ln.Addr().String(), Options{
		Conns:       1,
		DialTimeout: dialTimeout,
		dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if hang.Load() {
				<-ctx.Done() // a host that never answers the connect
				return nil, ctx.Err()
			}
			nc, err := new(net.Dialer).DialContext(ctx, network, addr)
			live = nc
			return nc, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hang.Store(true)
	live.Close()
	for deadline := time.Now().Add(2 * time.Second); !cl.slots[0].cn.Load().broken(); {
		if time.Now().After(deadline) {
			t.Fatal("slot 0 never went broken after its conn closed")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*dialTimeout)
	defer cancel()
	start := time.Now()
	_, err = cl.connAt(ctx, 0)
	d := time.Since(start)
	if err == nil {
		t.Fatal("a redial against a hung host succeeded")
	}
	if d < dialTimeout || d > 3*dialTimeout {
		t.Fatalf("checkout returned after %v, want about DialTimeout (%v)", d, dialTimeout)
	}
	if ctx.Err() != nil {
		t.Fatalf("checkout returned with the caller's deadline spent: %v", err)
	}
	var se *ServerError
	var ue *UnackedError
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		errors.As(err, &se) || errors.As(err, &ue) {
		t.Fatalf("redial timeout reads as %v (%T chain), want a transport failure", err, err)
	}
}
