package faster

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

// TestStoreMatchesModelMap runs long random operation sequences against the
// store and an in-memory reference map simultaneously, across key spaces
// large enough to force eviction, and demands exact agreement. Under the
// bounds that never block (plain and ASP) the sequence also crosses a
// Checkpoint, Close and reopen every reopenEvery operations, and every key
// of the map is compared after each reopen. This is the backbone property
// test for the whole engine.
func TestStoreMatchesModelMap(t *testing.T) {
	const (
		vs          = 12
		keySpace    = 800
		ops         = 20000
		reopenEvery = 2000
	)
	for _, bound := range []int64{-1, 0, 4, BoundAsync} {
		bound := bound
		t.Run(boundName(bound), func(t *testing.T) {
			cfg := Config{
				Dir: t.TempDir(), ValueSize: vs, RecordsPerPage: 32,
				MemPages: 6, MutablePages: 2, StalenessBound: bound, ExpectedKeys: 1 << 14,
			}
			st, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				s.Close()
				st.Close()
			}()
			model := make(map[uint64][]byte)
			dst := make([]byte, vs)
			// verify compares every key of the key space by Peek
			// (staleness-neutral) against the map.
			verify := func(when string) {
				for k := uint64(1); k <= keySpace; k++ {
					found, err := s.Peek(k, dst)
					if err != nil {
						t.Fatal(err)
					}
					mv, ok := model[k]
					if found != ok {
						t.Fatalf("%s: key %d found=%v model=%v", when, k, found, ok)
					}
					if found && !bytes.Equal(dst, mv) {
						t.Fatalf("%s: key %d mismatch", when, k)
					}
				}
			}
			reopens := 0
			r := util.NewRNG(0xfeed ^ uint64(bound))
			for i := 0; i < ops; i++ {
				if i > 0 && i%reopenEvery == 0 && !BlockingBound(bound) {
					s.Close()
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = Open(cfg); err != nil {
						t.Fatal(err)
					}
					if s, err = st.NewSession(); err != nil {
						t.Fatal(err)
					}
					reopens++
					verify(fmt.Sprintf("op %d, after reopen %d", i, reopens))
				}
				k := r.Uint64n(keySpace) + 1
				switch r.Uint64n(10) {
				case 0, 1, 2, 3: // Put
					v := val(vs, r.Uint64())
					if err := s.Put(k, v); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				case 4: // Delete
					if err := s.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				case 5: // RMW increment first byte
					if err := s.RMW(k, func(cur []byte, exists bool) bool { cur[0]++; return true }); err != nil {
						t.Fatal(err)
					}
					mv, ok := model[k]
					if !ok {
						mv = make([]byte, vs)
					} else {
						mv = append([]byte(nil), mv...)
					}
					mv[0]++
					model[k] = mv
				case 6: // Prefetch (must never change visible state)
					if _, err := s.Prefetch(k); err != nil {
						t.Fatal(err)
					}
				case 7: // Peek
					found, err := s.Peek(k, dst)
					if err != nil {
						t.Fatal(err)
					}
					mv, ok := model[k]
					if found != ok {
						t.Fatalf("op %d: Peek(%d) found=%v, model=%v", i, k, found, ok)
					}
					if found && !bytes.Equal(dst, mv) {
						t.Fatalf("op %d: Peek(%d) value mismatch", i, k)
					}
				default: // Get
					// Under BSP (bound 0) an unmatched Get would block the
					// next Get forever, so balance it with a Put-back, which
					// is exactly what training does.
					found, err := s.Get(k, dst)
					if err != nil {
						t.Fatal(err)
					}
					mv, ok := model[k]
					if found != ok {
						t.Fatalf("op %d: Get(%d) found=%v, model has=%v", i, k, found, ok)
					}
					if found {
						if !bytes.Equal(dst, mv) {
							t.Fatalf("op %d: Get(%d) = %x, want %x", i, k, dst, mv)
						}
						if bound >= 0 {
							if err := s.Put(k, dst); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			verify("final")
			if want := (ops - 1) / reopenEvery; !BlockingBound(bound) && reopens != want {
				t.Fatalf("crossed %d reopens, want %d", reopens, want)
			}
		})
	}
}

func boundName(b int64) string {
	switch {
	case b < 0:
		return "plain"
	case b == 0:
		return "bsp"
	case b == BoundAsync:
		return "asp"
	default:
		return "ssp"
	}
}

// TestGenerationMonotonic verifies the generation counter increases with
// every value mutation of an in-place record.
func TestGenerationMonotonic(t *testing.T) {
	st := testStore(t, 8, 256, 8, 4, -1)
	s, _ := st.NewSession()
	defer s.Close()
	s.Put(1, val(8, 0))
	last := uint64(0)
	for i := 1; i < 50; i++ {
		s.Put(1, val(8, uint64(i)))
		s.es.Protect()
		hit, _ := s.findKey(1, false)
		gen := Generation(hit.f.hdrs[hit.slot].Load())
		s.es.Unprotect()
		if gen <= last {
			t.Fatalf("generation not monotonic: %d -> %d", last, gen)
		}
		last = gen
	}
}
