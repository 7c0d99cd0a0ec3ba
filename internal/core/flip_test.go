package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// flipCell is the hot tier (kv.ShardedConfig.CacheEntries) in front of a
// hybrid-log store a few pages large, driven in version numbers: a key's
// value is its version, repeated in every slot. The two cells are the two
// ways in: a core.Table opened with CacheEntries, and the byte-level store
// opened with it.
type flipCell interface {
	session(t *testing.T) flipSession
	resident() bool
	counters() stats.Counters
}

type flipSession interface {
	put(k uint64, ver uint32) error
	bump(k uint64) error // storage-side version+1
	get(ctx context.Context, k uint64) (uint32, error)
	peek(k uint64) (uint32, error)
	close()
}

// tableCell: through the float32 table (WithCache).
type tableCell struct{ tbl *Table }

func (c tableCell) resident() bool           { return c.tbl.store.Resident() }
func (c tableCell) counters() stats.Counters { return c.tbl.Stats() }
func (c tableCell) session(t *testing.T) flipSession {
	s, err := c.tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return &tableSession{s: s}
}

type tableSession struct {
	s   *Session
	buf [2]float32
}

func (s *tableSession) close() { s.s.Close() }
func (s *tableSession) put(k uint64, ver uint32) error {
	s.buf = [2]float32{float32(ver), float32(ver)}
	return putOne(context.Background(), s.s, k, s.buf[:])
}
func (s *tableSession) bump(k uint64) error {
	return s.s.RMW(context.Background(), k, []float32{-1, -1}, 1)
}
func (s *tableSession) version() (uint32, error) {
	if s.buf[0] != s.buf[1] {
		return 0, fmt.Errorf("torn value %v", s.buf)
	}
	return uint32(s.buf[0]), nil
}
func (s *tableSession) get(ctx context.Context, k uint64) (uint32, error) {
	if err := getOne(ctx, s.s, k, s.buf[:]); err != nil {
		return 0, err
	}
	return s.version()
}
func (s *tableSession) peek(k uint64) (uint32, error) {
	if found, err := s.s.Peek(context.Background(), k, s.buf[:]); err != nil || !found {
		return 0, fmt.Errorf("peek: found=%v err=%v", found, err)
	}
	return s.version()
}

// wrapCell: through the byte-level store (mlkv-server -cache).
type wrapCell struct{ st kv.Store }

func (c wrapCell) resident() bool           { return c.st.Resident() }
func (c wrapCell) counters() stats.Counters { return c.st.Stats() }
func (c wrapCell) session(t *testing.T) flipSession {
	s, err := c.st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return &wrapSession{s: s}
}

type wrapSession struct {
	s   kv.Session
	buf [8]byte
}

func (s *wrapSession) close() { s.s.Close() }
func (s *wrapSession) put(k uint64, ver uint32) error {
	binary.LittleEndian.PutUint32(s.buf[:], ver)
	binary.LittleEndian.PutUint32(s.buf[4:], ver)
	return s.s.Put(k, s.buf[:])
}
func (s *wrapSession) bump(k uint64) error {
	return s.s.RMW(k, func(cur []byte, _ bool) bool {
		v := binary.LittleEndian.Uint32(cur) + 1
		binary.LittleEndian.PutUint32(cur, v)
		binary.LittleEndian.PutUint32(cur[4:], v)
		return true
	})
}
func (s *wrapSession) version(found bool, err error) (uint32, error) {
	if err != nil || !found {
		return 0, fmt.Errorf("found=%v err=%v", found, err)
	}
	a, b := binary.LittleEndian.Uint32(s.buf[:]), binary.LittleEndian.Uint32(s.buf[4:])
	if a != b {
		return 0, fmt.Errorf("torn value %d/%d", a, b)
	}
	return a, nil
}
func (s *wrapSession) get(ctx context.Context, k uint64) (uint32, error) {
	var found [1]bool
	err := kv.SessionGetBatchCtx(ctx, s.s, len(s.buf), []uint64{k}, s.buf[:], found[:])
	return s.version(found[0], err)
}
func (s *wrapSession) peek(k uint64) (uint32, error) {
	return s.version(s.s.Peek(k, s.buf[:]))
}

// TestTierCoherentAcrossSpill runs writers (Put and RMW, one writer per
// key) and readers over a shared key set while the store is resident, lets
// a filler force the first eviction under them, and keeps going: the hot
// tier, bypassed until then, must come into play with nothing stale in it.
// Every Get, on either side of the flip, returns a version no older than
// the bound allows — the newest committed one while the store is resident
// or the bound is what the engine enforces, at most bound writes behind it
// from the tier under SSP — and never one that was not written; once
// writers quiesce, Get equals Peek on every key, whether its last write was
// a Put or an RMW (a read-side fill that raced the RMW's invalidation is
// refused by hotcache's drop rule).
func TestTierCoherentAcrossSpill(t *testing.T) {
	const fourPages = 1 // MemoryBytes below the four-page floor
	for _, bound := range []int64{faster.BoundAsync, 4} {
		cells := map[string]func(t *testing.T) flipCell{
			"table": func(t *testing.T) flipCell {
				tbl, err := OpenTable(Options{
					Dir: t.TempDir(), Dim: 2, StalenessBound: bound,
					MemoryBytes: fourPages, RecordsPerPage: 64, CacheEntries: 1 << 12,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tbl.Close() })
				return tableCell{tbl}
			},
			"wrapped": func(t *testing.T) flipCell {
				st, err := kv.OpenEngine(kv.EngineFaster, kv.ShardedConfig{
					Dir: t.TempDir(), Shards: 2, ValueSize: 8, RecordsPerPage: 64,
					MemoryBytes: fourPages, ExpectedKeys: 1 << 12, StalenessBound: bound,
					CacheEntries: 1 << 12,
				}, "mlkv")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				return wrapCell{st}
			},
		}
		for name, open := range cells {
			t.Run(fmt.Sprintf("%s/bound=%d", name, bound), func(t *testing.T) {
				runFlip(t, open(t), bound)
			})
		}
	}
}

func runFlip(t *testing.T, cell flipCell, bound int64) {
	const (
		keys     = 32
		writers  = 2
		readers  = 2
		warmGets = 500  // per reader, before the filler starts
		postGets = 2000 // per reader, after the flip
	)
	// started[k] is stored before a write of that version is issued,
	// committed[k] after it returned: a read begun after committed[k] = c
	// and finished before started[k] = s must see c ≤ version ≤ s.
	var started, committed [keys]atomic.Uint32
	init := cell.session(t)
	for k := uint64(0); k < keys; k++ {
		if err := init.put(k, 1); err != nil {
			t.Fatal(err)
		}
		started[k].Store(1)
		committed[k].Store(1)
	}
	init.close()
	if !cell.resident() {
		t.Fatal("fixture spilled before the test began")
	}

	var (
		stopReaders, stopWriters atomic.Bool
		warm, post               atomic.Int64 // Gets before the filler / after the flip
		wgR, wgW                 sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		s := cell.session(t)
		wgW.Add(1)
		go func() {
			defer wgW.Done()
			defer s.close()
			write := func(k uint64, viaRMW bool) bool {
				v := committed[k].Load() + 1
				started[k].Store(v)
				var err error
				if viaRMW {
					err = s.bump(k)
				} else {
					err = s.put(k, v)
				}
				if err != nil {
					t.Errorf("write key %d: %v", k, err)
					return false
				}
				committed[k].Store(v)
				return true
			}
			for i := 0; !stopWriters.Load(); i++ {
				for k := uint64(w); k < keys; k += writers {
					if !write(k, (i+int(k))%3 == 0) {
						return
					}
				}
			}
			// Under a blocking bound the readers' last Gets may have left a
			// key at its bound, and the quiesced Get below would wait on it
			// forever: one more Put per key releases it. Under ASP nothing
			// settles — a key whose last write was an RMW must read back
			// right with no write-through to paper over a late fill.
			if bound != faster.BoundAsync {
				for k := uint64(w); k < keys; k += writers {
					if !write(k, false) {
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		s := cell.session(t)
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			defer s.close()
			for !stopReaders.Load() {
				for k := uint64(0); k < keys; k++ {
					spilledBefore := !cell.resident()
					lo := committed[k].Load()
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					v, err := s.get(ctx, k)
					cancel()
					if err != nil {
						t.Errorf("get key %d: %v", k, err)
						return
					}
					hi := started[k].Load()
					// A read that ended on a resident store went to the
					// engine, whatever the bound, and the engine serves the
					// newest version. After the flip the tier may serve what
					// its bound admits: anything ever written under ASP.
					floor := lo
					switch {
					case cell.resident():
					case bound == faster.BoundAsync:
						floor = 1
					default:
						floor = lo - min(lo, uint32(bound))
					}
					if v < floor || v > hi {
						t.Errorf("key %d read version %d, want %d..%d (committed %d before the read, spilled=%v)",
							k, v, floor, hi, lo, spilledBefore)
						return
					}
					if spilledBefore {
						post.Add(1)
					} else {
						warm.Add(1)
					}
				}
			}
		}()
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if t.Failed() || time.Now().After(deadline) {
				stopReaders.Store(true)
				stopWriters.Store(true)
				wgR.Wait()
				wgW.Wait()
				t.Fatalf("gave up waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("the readers to warm up", func() bool { return warm.Load() >= readers*warmGets })
	filler := cell.session(t)
	for n := uint64(0); cell.resident(); n++ {
		if n == 1<<20 {
			t.Fatal("store still resident after 2^20 filler writes")
		}
		if err := filler.put(1<<32+n, 1); err != nil {
			t.Fatal(err)
		}
	}
	filler.close()
	waitFor("reads after the flip", func() bool { return post.Load() >= readers*postGets })
	stopReaders.Store(true)
	wgR.Wait()
	stopWriters.Store(true)
	wgW.Wait()
	if t.Failed() {
		return
	}

	if c := cell.counters(); c.CacheHits == 0 {
		t.Fatalf("the tier never served a read after the flip (%d misses)", c.CacheMisses)
	}
	s := cell.session(t)
	defer s.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for k := uint64(0); k < keys; k++ {
		want := committed[k].Load()
		pv, err := s.peek(k)
		if err != nil {
			t.Fatalf("peek key %d: %v", k, err)
		}
		gv, err := s.get(ctx, k)
		if err != nil {
			t.Fatalf("get key %d: %v", k, err)
		}
		if pv != want || gv != want {
			t.Fatalf("quiesced key %d: Get %d, Peek %d, last committed version %d", k, gv, pv, want)
		}
	}
}
