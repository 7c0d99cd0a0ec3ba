package faster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

// TestTruncatedLogRead: a log file shorter than the store believes it is
// yields errors, never a crash. (a) Truncated behind an open, spilled store,
// a Get of a disk-region key returns an error naming the record (on unix the
// read faults inside the mapping, which must surface like a failed pread).
// (b) Truncated below the checkpoint's tail while closed, the store refuses
// to open, naming the file's size and the size the tail needs.
func TestTruncatedLogRead(t *testing.T) {
	cfg := Config{
		Dir: t.TempDir(), ValueSize: 16, RecordsPerPage: 16,
		MemPages: 4, MutablePages: 2, StalenessBound: -1, ExpectedKeys: 1 << 10,
	}
	log := filepath.Join(cfg.Dir, "hlog.dat")
	st := mustOpen(t, cfg)
	for k := uint64(1); k <= 400; k++ {
		mustPut(t, st, k, val(16, k))
	}
	// The checkpoint waits out the flusher, so no write extends the file
	// again between the truncation and the read.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tail := st.TailAddr()

	t.Run("open", func(t *testing.T) {
		if st.Resident() {
			t.Fatal("store did not spill")
		}
		if err := os.Truncate(log, 0); err != nil {
			t.Fatal(err)
		}
		s, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		first := entryAddr(st.ix.find(util.HashKey(1)).Load())
		found, err := s.Get(1, make([]byte, 16))
		if err == nil || found {
			t.Fatalf("get of a truncated record: found=%v err=%v, want an error", found, err)
		}
		if want := fmt.Sprintf("read record %d:", first); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name key 1's record %d", err, first)
		}
	})
	// Close rewrites the in-memory pages at their offsets, below which the
	// file stays a hole of zeros.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	t.Run("reopen", func(t *testing.T) {
		need := int64(tail) * int64(diskRecSize(cfg.ValueSize))
		short := need / 2
		if err := os.Truncate(log, short); err != nil {
			t.Fatal(err)
		}
		st, err := Open(cfg)
		if err == nil {
			st.Close()
			t.Fatal("opened a log shorter than its checkpoint's tail")
		}
		for _, n := range []int64{short, need} {
			if !strings.Contains(err.Error(), fmt.Sprint(n)) {
				t.Fatalf("error %q does not name size %d", err, n)
			}
		}
	})
}

// BenchmarkDiskRead times one read of a disk-region record: a random key of
// a log ~60× the store's memory, read with the clock off, so nothing is
// copied to the tail and every read stays a disk read. warm reads a log the
// page cache holds. cold drops the log's pages from the page cache before
// every 64 reads, so each read pays for bringing its page back from the
// device (Linux only; elsewhere it skips).
func BenchmarkDiskRead(b *testing.B) {
	const vs, keys, spare = 64, 1 << 18, 1 << 13 // spare: the in-memory tail
	st, err := Open(Config{
		Dir: b.TempDir(), ValueSize: vs, RecordsPerPage: 1024,
		MemPages: 4, MutablePages: 1, StalenessBound: -1, ExpectedKeys: keys,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s, err := st.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	v := make([]byte, vs)
	for k := uint64(1); k <= keys; k++ {
		if err := s.Put(k, v); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, evictEvery int) {
		rng := util.NewRNG(1)
		before := st.Stats().DiskReads
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if evictEvery > 0 && i%evictEvery == 0 {
				b.StopTimer()
				if err := evictLog(st); err != nil {
					b.Skip(err)
				}
				b.StartTimer()
			}
			if found, err := s.Get(1+rng.Uint64()%(keys-spare), v); err != nil || !found {
				b.Fatalf("found=%v err=%v", found, err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(st.Stats().DiskReads-before)/float64(b.N), "diskreads/op")
	}
	b.Run("warm", func(b *testing.B) { run(b, 0) })
	b.Run("cold", func(b *testing.B) { run(b, 64) })
}
