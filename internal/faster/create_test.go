package faster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/util"
)

// firstValue is the create callback of these tests: a key's first value is
// a function of the key alone, as an embedding initializer's is.
func firstValue(key uint64, v []byte) { copy(v, val(len(v), key^0xc0ffee)) }

// initThenRead is first touch as a layer above the engine has to do it
// without read-or-create: a clocked read that misses, an RMW that writes the
// first value unless the key appeared meanwhile, and the read again.
func initThenRead(t *testing.T, s *Session, keys []uint64, idxs []int, vals []byte, found []bool) {
	t.Helper()
	vs := s.st.cfg.ValueSize
	for _, i := range idxs {
		dst := vals[i*vs : (i+1)*vs]
		for {
			ok, err := s.Get(keys[i], dst)
			if err != nil {
				t.Fatal(err)
			}
			if found[i] = ok; ok {
				break
			}
			if err := s.RMW(keys[i], func(cur []byte, exists bool) bool {
				if exists {
					return false
				}
				firstValue(keys[i], cur)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCreateInPassMatchesInitThenRead is the equivalence behind
// read-or-create: one GetBatchAt with create must return the same bytes,
// leave the same header word on every key it read (the token included), and
// leave every record — address, region, generation, staleness — exactly as
// the read → init → re-read loop does, on a spilled store whose batches mix
// mutable, read-only, disk-resident, deleted and never-written keys, with
// repeats inside a batch. Each read step is followed by a write of the same
// keys, so SSP's tokens are released and the script never blocks. The
// counters differ by exactly what the loop repeats: one miss read and one
// RMW per key created, and the chain walks those repeat (disk reads).
func TestCreateInPassMatchesInitThenRead(t *testing.T) {
	const (
		vs       = 8
		universe = 200 // ~13 pages of 16 records through a 4-page window
		fresh    = 64  // never-written keys the script reaches
	)
	for _, bound := range []int64{-1, 4, BoundAsync} {
		t.Run(boundName(bound), func(t *testing.T) {
			var sess []*Session
			var results [][]byte
			for _, inPass := range []bool{true, false} {
				st := testStore(t, vs, 16, 4, 1, bound)
				s, err := st.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				sess = append(sess, s)
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
				r := util.NewRNG(0xc4ea7e)
				for step := 0; step < 40; step++ {
					keys := make([]uint64, 24)
					for i := range keys {
						switch {
						case i%2 == 1 && r.Uint64()%3 == 0: // a repeat, at most once
							keys[i] = keys[i-1]
						case r.Uint64()%4 == 0:
							keys[i] = universe + r.Uint64()%fresh
						default:
							keys[i] = r.Uint64() % universe
						}
					}
					idxs := make([]int, len(keys))
					for i := range idxs {
						idxs[i] = len(keys) - 1 - i // served back to front
					}
					vals, found := make([]byte, len(keys)*vs), make([]bool, len(keys))
					if inPass {
						if err := s.GetBatchAt(context.Background(), keys, idxs, vals, found, firstValue); err != nil {
							t.Fatal(err)
						}
					} else {
						initThenRead(t, s, keys, idxs, vals, found)
					}
					out = append(out, vals...)
					for i, f := range found {
						if !f {
							t.Fatalf("step %d: key %d not found after read-or-create", step, keys[i])
						}
						// The header before the write: a created key must
						// already hold its reader's token.
						out = binary.LittleEndian.AppendUint64(out, stateOf(t, s, keys[i]).hdr)
					}
					for i := range vals {
						vals[i] ^= byte(step)
					}
					if err := s.PutBatchAt(keys, idxs, vals); err != nil {
						t.Fatal(err)
					}
				}
				results = append(results, out)
			}

			pass, loop := opCounters(sess[0].st), opCounters(sess[1].st)
			if pass.DiskReads > loop.DiskReads {
				t.Fatalf("the pass read the disk %d times, the loop %d", pass.DiskReads, loop.DiskReads)
			}
			if loop.RMWs == 0 {
				t.Fatal("the script created nothing")
			}
			loop.Gets -= loop.RMWs
			loop.RMWs, loop.DiskReads, pass.DiskReads = 0, 0, 0
			if pass != loop {
				t.Fatalf("counters differ beyond the loop's repeats:\npass: %+v\nloop: %+v", pass, loop)
			}
			if !bytes.Equal(results[0], results[1]) {
				t.Fatal("the pass and the loop returned different values")
			}
			for k := uint64(0); k < universe+fresh; k++ {
				if a, b := stateOf(t, sess[0], k), stateOf(t, sess[1], k); a != b {
					t.Fatalf("key %d: the pass left %+v, the loop %+v", k, a, b)
				}
			}
		})
	}
}

// TestCreateHoldsItsToken: under BSP the session that creates a key holds
// its staleness token from the moment the key exists — another session's
// clocked read waits for the creator's write, and then reads that write,
// never the first value.
func TestCreateHoldsItsToken(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 8, 2, 0)
	creator, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	reader, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	const key = 42
	keys, idxs := []uint64{key}, []int{0}
	got, found := make([]byte, vs), make([]bool, 1)
	if err := creator.GetBatchAt(context.Background(), keys, idxs, got, found, firstValue); err != nil || !found[0] {
		t.Fatal(found[0], err)
	}
	if want := val(vs, key^0xc0ffee); !bytes.Equal(got, want) {
		t.Fatalf("created % x, want % x", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := reader.GetBatchAt(ctx, keys, idxs, make([]byte, vs), make([]bool, 1), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a read of a just-created key returned %v under BSP, want a deadline", err)
	}
	trained := val(vs, 7)
	if err := creator.Put(key, trained); err != nil {
		t.Fatal(err)
	}
	if ok, err := reader.Get(key, got); err != nil || !ok || !bytes.Equal(got, trained) {
		t.Fatalf("after the creator's write: found=%v err=%v % x, want % x", ok, err, got, trained)
	}
}

// TestCreateLostRaceReadsWinner stages the race inside one goroutine: while
// session a's create runs, session b creates the same key first. a's append
// then loses the index CAS, is abandoned, and a reads b's record — its
// value, with both sessions' tokens on the clock and one record appended.
// The bound is SSP(8): it runs the clock, and two tokens stay within it.
func TestCreateLostRaceReadsWinner(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 8, 2, 8)
	a, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const key = 9
	keys, idxs := []uint64{key}, []int{0}
	winner := bytes.Repeat([]byte{0xbb}, vs)
	raced := false
	aCreate := func(k uint64, v []byte) {
		if !raced {
			raced = true
			bv, bf := make([]byte, vs), make([]bool, 1)
			if err := b.GetBatchAt(context.Background(), keys, idxs, bv, bf,
				func(_ uint64, v []byte) { copy(v, winner) }); err != nil || !bf[0] {
				t.Fatal(bf[0], err)
			}
		}
		for i := range v {
			v[i] = 0xaa
		}
	}
	got, found := make([]byte, vs), make([]bool, 1)
	if err := a.GetBatchAt(context.Background(), keys, idxs, got, found, aCreate); err != nil || !found[0] {
		t.Fatal(found[0], err)
	}
	if !bytes.Equal(got, winner) {
		t.Fatalf("the loser read % x, want the winner's % x", got, winner)
	}
	c := st.Stats()
	if c.RCUAppends != 1 || c.AbandonedAppends != 1 {
		t.Fatalf("appends %d, abandoned %d; want one of each", c.RCUAppends, c.AbandonedAppends)
	}
	if rs := stateOf(t, a, key); Staleness(rs.hdr) != 2 || Generation(rs.hdr) != 0 {
		t.Fatalf("record header staleness %d generation %d, want 2 and 0", Staleness(rs.hdr), Generation(rs.hdr))
	}
}
