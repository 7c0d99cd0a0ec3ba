package driver

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"

	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/server"
)

// TestParseTarget drives the full remote-target grammar: single host,
// default port, seed lists, bracketed IPv6, and the malformed shapes that
// must fail descriptively instead of surfacing as dial errors.
func TestParseTarget(t *testing.T) {
	cases := []struct {
		name    string
		target  string
		want    []string
		wantErr string // substring of the error; "" = success
	}{
		{name: "host and port", target: "mlkv://127.0.0.1:7070", want: []string{"127.0.0.1:7070"}},
		{name: "host only takes default port", target: "mlkv://db1", want: []string{"db1:" + DefaultPort}},
		{name: "hostname and port", target: "mlkv://db1.internal:9000", want: []string{"db1.internal:9000"}},
		{name: "multi host", target: "mlkv://a:1,b:2,c:3", want: []string{"a:1", "b:2", "c:3"}},
		{name: "multi host mixed ports", target: "mlkv://a,b:9000,c", want: []string{"a:" + DefaultPort, "b:9000", "c:" + DefaultPort}},
		{name: "spaces around entries", target: "mlkv://a:1, b:2 ,c:3", want: []string{"a:1", "b:2", "c:3"}},
		{name: "bracketed ipv6 with port", target: "mlkv://[::1]:7070", want: []string{"[::1]:7070"}},
		{name: "bracketed ipv6 default port", target: "mlkv://[::1]", want: []string{"[::1]:" + DefaultPort}},

		{name: "empty target", target: "mlkv://", wantErr: "names no server address"},
		{name: "whitespace target", target: "mlkv://  ", wantErr: "names no server address"},
		{name: "empty list entry", target: "mlkv://a:1,,b:2", wantErr: "empty host entry"},
		{name: "trailing comma", target: "mlkv://a:1,", wantErr: "empty host entry"},
		{name: "only commas", target: "mlkv://,,", wantErr: "empty host entry"},
		{name: "empty brackets", target: "mlkv://[]", wantErr: "empty host"},
		{name: "unbracketed ipv6", target: "mlkv://::1", wantErr: "too many colons"},
		{name: "not remote", target: "/data/mlkv", wantErr: "is not remote"},
		{name: "empty string", target: "", wantErr: "is not remote"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseTarget(tc.target)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("ParseTarget(%q) = %v, want error containing %q", tc.target, got, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseTarget(%q) error = %q, want it to contain %q", tc.target, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTarget(%q): %v", tc.target, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseTarget(%q) = %v, want %v", tc.target, got, tc.want)
			}
		})
	}
}

// TestConnectEmptyHostError pins the Connect-level behavior the parse
// errors exist for: an empty host list is a descriptive error, not a dial
// panic or a cryptic transport failure.
func TestConnectEmptyHostError(t *testing.T) {
	for _, target := range []string{"mlkv://", "mlkv://a:1,,b:2"} {
		if _, err := Connect(target, ConnectOptions{}); err == nil {
			t.Fatalf("Connect(%q) succeeded, want descriptive parse error", target)
		} else if strings.Contains(err.Error(), "connection refused") {
			t.Fatalf("Connect(%q) surfaced a dial error (%v), want a parse error", target, err)
		}
	}
}

// TestConnectNonClusteredSeed pins the bootstrap rule for a server that
// answers the CLUSTERMAP probe with an empty map: one host is the plain
// single-server target, while a seed list — a promise of a cluster —
// naming it is a configuration error.
func TestConnectNonClusteredSeed(t *testing.T) {
	dir := t.TempDir()
	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: dir, MemoryBytes: 1 << 20, StalenessBound: -1,
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
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	addr := ln.Addr().String()

	db, err := Connect(Scheme+addr, ConnectOptions{})
	if err != nil {
		t.Fatalf("single non-clustered host: %v", err)
	}
	if _, single := db.(*remoteDB).c.(singleBackend); !single {
		t.Fatalf("single non-clustered host built %T, want the one-server backend", db.(*remoteDB).c)
	}
	db.Close()

	if _, err := Connect(Scheme+addr+","+addr, ConnectOptions{}); err == nil || !strings.Contains(err.Error(), "not clustered") {
		t.Fatalf("seed list naming a non-clustered host: err = %v, want a \"not clustered\" configuration error", err)
	}
	if n := srv.Stats().Errors; n != 0 {
		t.Fatalf("bootstrap probes cost %d server errors, want 0", n)
	}
}
