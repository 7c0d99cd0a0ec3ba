package train

import (
	"context"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/data"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/models"
	"github.com/llm-db/mlkv-go/internal/server"
)

const confDim = 8

var confInit = core.UniformInit(0.05, 1)

// confBackends builds one instance of every Handle implementation: a local
// public-API model with the clock on (SSP(8)) and off (-1), sharded
// memory, and a remote backend speaking the wire protocol to a loopback
// mlkv-server. Each comes fresh (empty store).
func confBackends(t *testing.T) map[string]Backend {
	t.Helper()
	out := map[string]Backend{
		"mlkv":   mlkvBackend(t, confDim, 8),
		"faster": mlkvBackend(t, confDim, mlkv.Disabled),
		"mem":    NewMemBackend("mem", confDim, confInit),
		"remote": remoteBackend(t, confDim, 0, faster.BoundAsync),
	}
	return out
}

// remoteBackend serves a registry that opens fresh sharded stores on
// loopback and opens one through the public API (mlkv.Connect → db.Open),
// the path mlkv-train -addr takes. conns sizes the connection pool (0 = a
// small default); under a blocking bound it must cover every concurrently
// training handle, or a blocked read shares a connection — and the
// server's per-connection handler — with the write that unblocks it.
func remoteBackend(t *testing.T, dim, conns int, bound int64) *ModelBackend {
	t.Helper()
	if conns <= 0 {
		conns = 4
	}
	reg := server.NewRegistry(server.RegistryConfig{Store: kv.ShardedConfig{
		Dir: t.TempDir(), Shards: 4, RecordsPerPage: 64, MemoryBytes: 1 << 20,
		StalenessBound: bound,
	}})
	srv := server.New(server.Config{Registry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	db, err := mlkv.Connect(mlkv.Scheme+ln.Addr().String(), mlkv.WithConns(conns))
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.Open("conformance", dim, mlkv.WithInitializer(confInit))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		db.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
		reg.Close()
	})
	return NewModelBackend(m, true)
}

func f32Eq(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFirstTouchArrivesZeroed pins the Initializer contract on both local
// first-touch paths: dst arrives zeroed, so an initializer that writes only
// part of it leaves zeros in the rest, whatever the caller's buffer held.
func TestFirstTouchArrivesZeroed(t *testing.T) {
	const dim = 4
	partial := core.Initializer(func(_ uint64, dst []float32) { dst[0] = 1 })
	db, err := mlkv.Connect(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	m, err := db.Open("zeroed", dim, mlkv.WithInitializer(partial))
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 0, 0, 0}
	dirty := func(n int) []float32 {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = 7
		}
		return buf
	}
	for name, b := range map[string]Backend{
		"mem":   NewMemBackend("mem", dim, partial),
		"local": NewModelBackend(m, false),
	} {
		t.Run(name, func(t *testing.T) {
			h, err := b.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			got := dirty(dim)
			if err := h.GetBatch([]uint64{1}, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("one-key GetBatch first touch = %v, want %v", got, want)
			}
			got = dirty(2 * dim)
			if err := h.GetBatch([]uint64{2, 3}, got); err != nil {
				t.Fatal(err)
			}
			if wantBatch := slices.Concat(want, want); !slices.Equal(got, wantBatch) {
				t.Errorf("GetBatch first touch = %v, want %v", got, wantBatch)
			}
		})
	}
}

// TestHandleConformance runs the same observable-behavior contract over
// every backend: first-touch init is deterministic and persistent,
// a many-key and a one-key GetBatch agree, PutBatch round-trips, Peek sees the last
// Put and misses on unknown keys, Lookahead is a safe no-op at worst.
// Reads and writes stay balanced so the clocked backends' vector clocks
// never strand a token.
func TestHandleConformance(t *testing.T) {
	for name, b := range confBackends(t) {
		t.Run(name, func(t *testing.T) {
			if b.Dim() != confDim {
				t.Fatalf("Dim() = %d, want %d", b.Dim(), confDim)
			}
			h, err := b.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			keys := []uint64{3, 11, 42, 77, 99, 500, 12345, 1<<40 + 7}
			dim := b.Dim()

			// First touch through the batch path: every slot must hold the
			// deterministic initializer's output.
			got := make([]float32, len(keys)*dim)
			if err := h.GetBatch(keys, got); err != nil {
				t.Fatal(err)
			}
			want := make([]float32, dim)
			for i, k := range keys {
				confInit(k, want)
				if !f32Eq(got[i*dim:(i+1)*dim], want) {
					t.Fatalf("key %d: first-touch GetBatch = %v, want %v", k, got[i*dim:(i+1)*dim], want)
				}
			}
			if err := h.PutBatch(keys, got); err != nil { // release the read tokens
				t.Fatal(err)
			}

			// A one-key GetBatch must see exactly what the batch saw (the
			// init persisted; no re-initialization on later reads).
			one := make([]float32, dim)
			for i, k := range keys {
				if err := h.GetBatch([]uint64{k}, one); err != nil {
					t.Fatal(err)
				}
				if !f32Eq(one, got[i*dim:(i+1)*dim]) {
					t.Fatalf("key %d: one-key GetBatch %v != batch value %v", k, one, got[i*dim:(i+1)*dim])
				}
				if err := h.PutBatch([]uint64{k}, one); err != nil {
					t.Fatal(err)
				}
			}

			// PutBatch round-trip with distinct values.
			vals := make([]float32, len(keys)*dim)
			for i := range vals {
				vals[i] = float32(i) * 0.25
			}
			if err := h.PutBatch(keys, vals); err != nil {
				t.Fatal(err)
			}
			if err := h.GetBatch(keys, got); err != nil {
				t.Fatal(err)
			}
			if !f32Eq(got, vals) {
				t.Fatal("GetBatch after PutBatch returned different values")
			}
			if err := h.PutBatch(keys, got); err != nil {
				t.Fatal(err)
			}

			// Peek-after-Put: sees the last write, no clock effects, and
			// misses cleanly on a never-touched key.
			if found, err := h.Peek(keys[0], one); err != nil || !found {
				t.Fatalf("Peek(%d): found=%v err=%v", keys[0], found, err)
			}
			if !f32Eq(one, vals[:dim]) {
				t.Fatalf("Peek read %v, want %v", one, vals[:dim])
			}
			if found, err := h.Peek(0xdead_beef_0001, one); err != nil || found {
				t.Fatalf("Peek of missing key: found=%v err=%v", found, err)
			}

			// Lookahead must be safe on any backend (async hint or no-op).
			h.Lookahead(keys)
		})
	}
}

// TestGatherDedupAndScatter pins the gather contract: duplicate adds
// collapse to one slot, keys sort ascending, duplicate gradients sum, and
// scatter applies each unique key's combined update exactly once.
func TestGatherDedupAndScatter(t *testing.T) {
	const dim = 4
	b := NewMemBackend("mem", dim, nil) // zero-init
	h, err := b.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	g := newGather(dim)
	g.reset()
	for _, k := range []uint64{9, 5, 9, 7, 5, 9} {
		g.add(k)
	}
	if err := g.fetch(h); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{5, 7, 9}; !slices.Equal(g.keys, want) {
		t.Fatalf("keys = %v, want %v (unique, ascending)", g.keys, want)
	}
	// Duplicate keys alias one embedding slot.
	g.emb(9)[0] = 42
	if g.emb(9)[0] != 42 {
		t.Fatal("emb(9) not aliased")
	}
	// Gradients accumulate per unique key; scatter applies once.
	g.accumulate(9, []float32{1, 0, 0, 0}, 1)
	g.accumulate(9, []float32{2, 0, 0, 0}, 1)
	g.accumulate(5, []float32{1, 1, 1, 1}, 0.5)
	if err := g.scatter(h, 1.0); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, dim)
	if found, _ := h.Peek(9, out); !found || out[0] != 42-3 {
		t.Fatalf("key 9 = %v, want first elem %v", out, 42-3)
	}
	if found, _ := h.Peek(5, out); !found || out[0] != -0.5 {
		t.Fatalf("key 5 = %v, want first elem -0.5", out)
	}
	if found, _ := h.Peek(7, out); !found || out[0] != 0 {
		t.Fatalf("key 7 = %v, want zeros (fetched, no grad, still written)", out)
	}
}

// TestTrainCTRRemoteBSP trains DLRM against a loopback mlkv-server whose
// store enforces BSP (staleness bound 0) with sync workers — the full
// remote-training path: batched gather/scatter as GETBATCH/PUTBATCH
// frames, serial in-order clocked reads on the server, clock balance
// across steps, clock-free PEEK evaluation.
func TestTrainCTRRemoteBSP(t *testing.T) {
	const workers = 2
	rb := remoteBackend(t, confDim, workers+2, 0)
	gen := data.NewCTRGen(data.CTRConfig{Fields: 3, DenseDim: 2, FieldCard: 200, Seed: 7})
	model := models.NewDLRM(models.FFNN, 3, confDim, 2, []int{8}, 9)
	res, err := TrainCTR(CTROptions{
		Gen: gen, Model: model, Backend: rb,
		Workers: workers, Batch: 8, Mode: ModeSync,
		DenseLR: 0.05, EmbLR: 0.05,
		MaxSamples: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "remote(mlkv)" {
		t.Fatalf("backend name %q", res.Backend)
	}
	if res.Samples < 1500 {
		t.Fatalf("remote BSP training stalled at %d samples", res.Samples)
	}
	if res.FinalMetric <= 0 {
		t.Fatalf("final AUC = %v", res.FinalMetric)
	}
}
