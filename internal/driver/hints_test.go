package driver

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/faultnet"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
)

// TestRemoteCloseWithHintOnDeadPeer pins that a remote model's Close does
// not wait on a server that stopped answering. The model's hint worker is
// mid-round-trip — its connection cut, its redial held by a blackhole that
// accepts and never answers — when Close runs: Close must abandon the
// hint, and the worker's session must close without a round trip to the
// silent peer, well inside the pool's dial timeout.
func TestRemoteCloseWithHintOnDeadPeer(t *testing.T) {
	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: t.TempDir(), MemoryBytes: 1 << 20, StalenessBound: -1,
	}})
	defer reg.Close()
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()
	proxy, err := faultnet.New(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	ctx := context.Background()
	db, err := Connect(Scheme+proxy.Addr(), ConnectOptions{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.Open(ctx, "hints", Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []uint64{1, 2, 3}
	s.Lookahead(keys) // starts the worker on its own session
	for deadline := time.Now().Add(5 * time.Second); reg.Models()[0].Stats().LookaheadCalls == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the first hint never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	proxy.Blackhole()
	// Keep hinting until the worker is stuck: the first hint after the cut
	// may fail fast on the dead connection, a later one redials into the
	// blackhole.
	for range 5 {
		s.Lookahead(keys)
		time.Sleep(20 * time.Millisecond)
	}
	closed := make(chan error, 1)
	start := time.Now()
	go func() { closed <- m.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Model.Close returned in %v", time.Since(start))
	case <-time.After(2 * time.Second):
		t.Fatal("Model.Close still waiting on a silent server after 2s")
	}
}
