package kv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

// spillConfig sizes a hybrid-log store at the minimum of four 64-record
// pages per shard, so a few hundred writes evict the first page.
func spillConfig(dir string, shards, vs int, bound int64) ShardedConfig {
	return ShardedConfig{
		Dir: dir, Shards: shards, ValueSize: vs, RecordsPerPage: 64,
		MemoryBytes: 1, ExpectedKeys: 1 << 12, StalenessBound: bound,
	}
}

// spill writes filler keys (2^32 and up) through st until it stops being
// resident, then reads the fillers back oldest first until one comes from
// disk: the fixture of every test that needs the layers a resident store
// switches off. The filler count is a function of the store's sizing alone,
// so twin stores spilled this way stay twins.
func spill(t *testing.T, st Store) {
	t.Helper()
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const base = uint64(1) << 32
	v := make([]byte, st.ValueSize())
	n := uint64(0)
	for ; st.Resident(); n++ {
		if n == 1<<20 {
			t.Fatal("store still resident after 2^20 filler writes")
		}
		if err := s.Put(base+n, v); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats().DiskReads
	for k := uint64(0); k < n && st.Stats().DiskReads == before; k++ {
		if _, err := s.Peek(base+k, v); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().DiskReads == before {
		t.Fatal("spilled store served every filler key from memory")
	}
}

// TestResident pins the one question the engine seam answers about disk:
// true on a fresh hybrid-log store, false from its first evicted page on
// and after checkpoint → reopen, and a hot tier in front
// (ShardedConfig.CacheEntries) leaves the shards' answer as it is.
func TestResident(t *testing.T) {
	const vs = 16
	cfg := spillConfig(t.TempDir(), 4, vs, -1)
	cfg.CacheEntries = 64
	st, err := OpenEngine(EngineFaster, cfg, EngineFaster)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resident() {
		t.Fatalf("fresh store with a tier: Resident() = %v", st.Resident())
	}
	spill(t, st) // one shard evicting is enough: the answer is "every shard"
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	v := make([]byte, vs)
	for k := uint64(0); k < 2000; k++ {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		if st.Resident() {
			t.Fatalf("store became resident again after %d more writes", k+1)
		}
	}
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A store that never spilled is not resident after a reopen either:
	// recovery leaves everything it finds on disk.
	small := spillConfig(t.TempDir(), 4, vs, -1)
	st2, err := OpenEngine(EngineFaster, small, EngineFaster)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := st2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ {
		if err := s2.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	s2.Close()
	if !st2.Resident() {
		t.Fatal("eight-record store is not resident")
	}
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []ShardedConfig{cfg, small} {
		re, err := OpenEngine(EngineFaster, c, EngineFaster)
		if err != nil {
			t.Fatal(err)
		}
		if re.Resident() {
			t.Fatalf("store reopened from %s reports resident", c.Dir)
		}
		re.Close()
	}
}

// withFanOutMode returns a view of st (sharing its shards) whose batches
// always fan out serially, or always in parallel: fanOut consults Resident
// alone to choose between the two.
func withFanOutMode(st Store, serial bool) Store {
	view := *st.(*shardedStore)
	view.pinned = &serial
	return &view
}

// TestFanOutSerialParallelEquivalence drives one batch sequence through
// twin 4-shard stores, one fanning out serially and one with a goroutine
// per shard, on a resident pair and on a spilled pair: every GetBatch must
// read byte-identical values and every shard's log must end with identical
// records in identical order, i.e. the mode changes who runs a shard's
// group and nothing about what the shard sees.
func TestFanOutSerialParallelEquivalence(t *testing.T) {
	const vs, shards, batch, rounds = 16, 4, 96, 40
	for _, spilled := range []bool{false, true} {
		t.Run(fmt.Sprintf("spilled=%v", spilled), func(t *testing.T) {
			var dirs [2]string
			var reads [2][]byte
			for mode := range dirs { // 0: serial, 1: parallel
				dirs[mode] = t.TempDir()
				cfg := spillConfig(dirs[mode], shards, vs, faster.BoundAsync)
				if !spilled {
					cfg.MemoryBytes = 8 << 20
				}
				st, err := OpenEngine(EngineFaster, cfg, EngineFaster)
				if err != nil {
					t.Fatal(err)
				}
				if spilled {
					spill(t, st)
				}
				s, err := withFanOutMode(st, mode == 0).NewSession()
				if err != nil {
					t.Fatal(err)
				}
				rng := util.NewRNG(11)
				keys := make([]uint64, batch)
				vals := make([]byte, batch*vs)
				found := make([]bool, batch)
				for r := 0; r < rounds; r++ {
					// Unique keys from a range a few times the memory of the
					// spilled pair, so its reads mix memory, disk and absent.
					seen := map[uint64]bool{}
					for i := range keys {
						k := rng.Uint64() % 4096
						for seen[k] {
							k = rng.Uint64() % 4096
						}
						seen[k], keys[i] = true, k
					}
					if err := SessionGetBatch(s, vs, keys, vals, found); err != nil {
						t.Fatal(err)
					}
					reads[mode] = append(reads[mode], vals...)
					for i := range found {
						present := byte(0)
						if found[i] {
							present = 1
						}
						reads[mode] = append(reads[mode], present)
						for j := 0; j < vs; j++ {
							vals[i*vs+j] = byte(r) + byte(keys[i]) + byte(j)
						}
					}
					if err := SessionPutBatch(s, vs, keys, vals); err != nil {
						t.Fatal(err)
					}
				}
				s.Close()
				if st.Resident() == spilled {
					t.Fatalf("fixture: Resident() = %v on the spilled=%v pair", st.Resident(), spilled)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(reads[0], reads[1]) {
				t.Fatal("serial and parallel fan-out read different values")
			}
			for sh := 0; sh < shards; sh++ {
				var logs [2][]byte
				for mode, dir := range dirs {
					b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("shard-%03d", sh), "hlog.dat"))
					if err != nil {
						t.Fatal(err)
					}
					// Clear every record's replaced bit (header bit 62): whether a
					// superseded record reached the file before or after its
					// successor marked it is a race between the writer and the
					// background flusher, in either mode.
					for off := 7; off < len(b); off += 24 + vs {
						b[off] &^= 0x40
					}
					logs[mode] = b
				}
				if len(logs[0]) == 0 || !bytes.Equal(logs[0], logs[1]) {
					t.Fatalf("shard %d: logs differ between serial and parallel fan-out (%d vs %d bytes)",
						sh, len(logs[0]), len(logs[1]))
				}
			}
		})
	}
}
