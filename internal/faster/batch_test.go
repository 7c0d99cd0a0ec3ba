package faster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// batchMode is how a script's multi-key steps reach the store.
type batchMode int

const (
	viaBatchPass batchMode = iota // one GetBatchAt / PutBatchAt per step
	viaKeyLoop                    // Get / Put per key, in the step's order
)

func (m batchMode) String() string {
	return [...]string{"batch pass", "per-key loop"}[m]
}

func (m batchMode) get(t *testing.T, s *Session, keys []uint64, idxs []int, vals []byte, found []bool) {
	t.Helper()
	vs := s.st.cfg.ValueSize
	var err error
	switch m {
	case viaBatchPass:
		err = s.GetBatchAt(context.Background(), keys, idxs, vals, found, nil)
	case viaKeyLoop:
		for _, i := range idxs {
			if found[i], err = s.Get(keys[i], vals[i*vs:(i+1)*vs]); err != nil {
				break
			}
		}
	}
	if err != nil {
		t.Fatalf("%v: get: %v", m, err)
	}
}

func (m batchMode) put(t *testing.T, s *Session, keys []uint64, idxs []int, vals []byte) {
	t.Helper()
	vs := s.st.cfg.ValueSize
	var err error
	switch m {
	case viaBatchPass:
		err = s.PutBatchAt(keys, idxs, vals)
	case viaKeyLoop:
		for _, i := range idxs {
			if err = s.Put(keys[i], vals[i*vs:(i+1)*vs]); err != nil {
				break
			}
		}
	}
	if err != nil {
		t.Fatalf("%v: put: %v", m, err)
	}
}

// recordState is everything observable about a key's newest version.
type recordState struct {
	addr uint64
	tomb bool
	reg  region
	hdr  uint64 // staleness and generation; the lock bit is transient
}

func stateOf(t *testing.T, s *Session, key uint64) recordState {
	t.Helper()
	s.es.Protect()
	defer s.es.Unprotect()
	hit, err := s.findKey(key, false)
	if err != nil {
		t.Fatal(err)
	}
	rs := recordState{addr: hit.addr, tomb: hit.tomb, reg: hit.reg}
	switch {
	case hit.addr == InvalidAddr:
		return recordState{}
	case hit.reg == regionDisk:
		rs.hdr = hit.diskRec.hdr
	default:
		rs.hdr = hit.f.hdrs[hit.slot].Load() &^ lockedBit
	}
	return rs
}

// opCounters drops what the background flusher owns: when a page reaches
// the file is a matter of scheduling, not of the script.
func opCounters(st *Store) stats.Counters {
	c := st.Stats()
	c.FlushedPages, c.BytesFlushed, c.GroupCommits, c.FlushPaceStalls = 0, 0, 0, 0
	return c
}

// TestBatchPassMatchesPerKeyLoop runs one scripted sequence through the
// batch pass and through a loop of single-key calls, on identically loaded
// stores small enough that the script's
// keys sit in every region — mutable, read-only, disk — or are absent or
// deleted, with duplicates inside a batch and positions served out of
// order. Every step must return the same bytes and presence flags, and the
// stores must end with every record at the same address with the same
// header word, and with the same counters: the batch pass may share
// bookkeeping across keys, nothing else.
func TestBatchPassMatchesPerKeyLoop(t *testing.T) {
	const (
		vs       = 8
		rpp      = 16
		universe = 200 // ~13 pages through a 4-page window
	)
	// SSP(1<<20) runs the clock, cold reads copied to the tail, and is too
	// loose for this one session's reads ever to wait on it.
	for _, bound := range []int64{-1, BoundAsync, 1 << 20} {
		t.Run(boundName(bound), func(t *testing.T) {
			modes := []batchMode{viaBatchPass, viaKeyLoop}
			var (
				sess    []*Session
				results [][]byte // per mode: every step's vals and found, concatenated
			)
			for _, m := range modes {
				st := testStore(t, vs, rpp, 4, 1, bound)
				s, err := st.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				sess = append(sess, s)

				// Load: identical single-key traffic on every store.
				for k := uint64(0); k < universe; k++ {
					if err := s.Put(k, val(vs, k)); err != nil {
						t.Fatal(err)
					}
				}
				for k := uint64(0); k < universe; k += 7 {
					if err := s.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
				if st.Resident() {
					t.Fatal("fixture did not spill")
				}

				var out []byte
				r := util.NewRNG(0xba7c4)
				for step := 0; step < 40; step++ {
					// 24 keys from the whole universe plus a few never
					// written; a third of the positions repeat an earlier
					// key of the same batch.
					keys := make([]uint64, 24)
					for i := range keys {
						switch {
						case i > 0 && r.Uint64()%3 == 0:
							keys[i] = keys[r.Uint64()%uint64(i)]
						case r.Uint64()%8 == 0:
							keys[i] = universe + r.Uint64()%16
						default:
							keys[i] = r.Uint64() % universe
						}
					}
					// Serve a shuffled subset of the positions.
					idxs := make([]int, 0, len(keys))
					for i := range keys {
						if r.Uint64()%4 != 0 {
							idxs = append(idxs, i)
						}
					}
					for i := len(idxs) - 1; i > 0; i-- {
						j := int(r.Uint64() % uint64(i+1))
						idxs[i], idxs[j] = idxs[j], idxs[i]
					}
					vals := make([]byte, len(keys)*vs)
					if step%3 == 2 {
						for i, k := range keys {
							copy(vals[i*vs:], val(vs, k^uint64(step)<<32))
						}
						m.put(t, s, keys, idxs, vals)
						continue
					}
					for i := range vals {
						vals[i] = 0xEE // a skipped position must stay untouched
					}
					found := make([]bool, len(keys))
					m.get(t, s, keys, idxs, vals, found)
					out = append(out, vals...)
					for _, f := range found {
						if f {
							out = append(out, 1)
						} else {
							out = append(out, 0)
						}
					}
				}
				results = append(results, out)
			}

			// Counters first: stateOf walks chains, and a walk counts its
			// disk reads.
			ref, c := sess[0], opCounters(sess[0].st)
			for mi := 1; mi < len(modes); mi++ {
				if other := opCounters(sess[mi].st); other != c {
					t.Fatalf("counters differ:\n%v: %+v\n%v: %+v", modes[0], c, modes[mi], other)
				}
			}
			for mi := 1; mi < len(modes); mi++ {
				if !bytes.Equal(results[0], results[mi]) {
					t.Fatalf("%v and %v returned different values or presence flags", modes[0], modes[mi])
				}
				for k := uint64(0); k < universe+16; k++ {
					if a, b := stateOf(t, ref, k), stateOf(t, sess[mi], k); a != b {
						t.Fatalf("key %d: %v left %+v, %v left %+v", k, modes[0], a, modes[mi], b)
					}
				}
			}
			if c.DiskReads == 0 || c.MemHits == 0 || (BlockingBound(bound) && c.RCUAppends == 0) || c.InPlaceUpdates == 0 {
				t.Fatalf("script missed a region: %+v", c)
			}
		})
	}
}

// TestBatchPassUnderPageTurnover drives batch readers against an in-place
// writer and an appender on a store of four small pages, so the boundary
// moves and frames recycle in the middle of a pass: keys the pass began on
// as mutable turn read-only, fuzzy and cold under it. Values are one byte
// repeated, so a torn read shows; once the writers stop, the clocked read
// and the clock-free one must agree on every key.
func TestBatchPassUnderPageTurnover(t *testing.T) {
	const (
		vs      = 8
		hot     = 48
		readers = 2
		rounds  = 300
	)
	st := testStore(t, vs, 16, 4, 1, BoundAsync)
	fill := func(b []byte, v byte) {
		for i := range b {
			b[i] = v
		}
	}
	load, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, vs)
	for k := uint64(0); k < hot; k++ {
		fill(buf, byte(k))
		if err := load.Put(k, buf); err != nil {
			t.Fatal(err)
		}
	}
	load.Close()

	var stop atomic.Bool
	var writers, readersWG sync.WaitGroup
	background := func(wg *sync.WaitGroup, fn func(s *Session) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := st.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			if err := fn(s); err != nil {
				t.Error(err)
			}
		}()
	}
	background(&writers, func(s *Session) error { // in place, wherever the key is mutable
		v := make([]byte, vs)
		for n := uint64(0); !stop.Load(); n++ {
			fill(v, byte(n))
			if err := s.Put(n%hot, v); err != nil {
				return err
			}
		}
		return nil
	})
	background(&writers, func(s *Session) error { // fresh keys: every 16th opens a page
		v := make([]byte, vs)
		for k := uint64(1 << 20); !stop.Load(); k++ {
			if err := s.Put(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	for r := 0; r < readers; r++ {
		background(&readersWG, func(s *Session) error {
			keys := make([]uint64, 2*hot)
			idxs := make([]int, len(keys))
			for i := range keys {
				keys[i], idxs[i] = uint64(i%hot), i
			}
			vals, found := make([]byte, len(keys)*vs), make([]bool, len(keys))
			for n := 0; n < rounds; n++ {
				if err := s.GetBatchAt(context.Background(), keys, idxs, vals, found, nil); err != nil {
					return err
				}
				for i := range keys {
					v := vals[i*vs : (i+1)*vs]
					if !found[i] || bytes.Count(v, v[:1]) != vs {
						return fmt.Errorf("round %d key %d: found=%v value % x", n, keys[i], found[i], v)
					}
				}
			}
			return nil
		})
	}
	readersWG.Wait()
	stop.Store(true)
	writers.Wait()
	if st.Resident() {
		t.Fatal("no page turned over")
	}

	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, peeked := make([]byte, vs), make([]byte, vs)
	for k := uint64(0); k < hot; k++ {
		okG, errG := s.Get(k, got)
		okP, errP := s.Peek(k, peeked)
		if errG != nil || errP != nil || !okG || !okP || !bytes.Equal(got, peeked) {
			t.Fatalf("key %d: Get %v % x (%v), Peek %v % x (%v)", k, okG, got, errG, okP, peeked, errP)
		}
	}
}

// BenchmarkSessionGetBatch is the engine-level number behind kv_read_hot:
// a 256-key batch of 16-float values on a resident store, through one batch
// pass and through the per-key loop kv ran before the pass existed.
func BenchmarkSessionGetBatch(b *testing.B) {
	const (
		vs      = 16 * 4
		records = 1 << 16
		batch   = 256
	)
	st, err := Open(Config{
		Dir: b.TempDir(), ValueSize: vs, RecordsPerPage: 1024, MemPages: 128,
		StalenessBound: BoundAsync, ExpectedKeys: records,
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
	for k := uint64(0); k < records; k++ {
		if err := s.Put(k, v); err != nil {
			b.Fatal(err)
		}
	}
	if !st.Resident() {
		b.Fatal("fixture spilled")
	}
	r := util.NewRNG(0x5e55)
	keys, idxs := make([]uint64, batch), make([]int, batch)
	for i := range keys {
		keys[i], idxs[i] = r.Uint64()%records, i
	}
	vals, found := make([]byte, batch*vs), make([]bool, batch)
	for _, m := range []batchMode{viaBatchPass, viaKeyLoop} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				switch m {
				case viaBatchPass:
					err = s.GetBatchAt(context.Background(), keys, idxs, vals, found, nil)
				default:
					for _, i := range idxs {
						if found[i], err = s.Get(keys[i], vals[i*vs:(i+1)*vs]); err != nil {
							break
						}
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
		})
	}
}
