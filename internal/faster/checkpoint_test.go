package faster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 16, RecordsPerPage: 32, MemPages: 6,
		MutablePages: 2, StalenessBound: -1, ExpectedKeys: 4096,
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := st.NewSession()
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if err := s.Put(k, val(16, k)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite some keys so recovery must pick the newest version.
	for k := uint64(1); k <= 50; k++ {
		if err := s.Put(k, val(16, k+1000)); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(60)
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	dst := make([]byte, 16)
	for k := uint64(1); k <= n; k++ {
		found, err := s2.Get(k, dst)
		if err != nil {
			t.Fatal(err)
		}
		if k == 60 {
			if found {
				t.Fatal("deleted key resurrected by recovery")
			}
			continue
		}
		if !found {
			t.Fatalf("key %d lost in recovery", k)
		}
		want := val(16, k)
		if k <= 50 {
			want = val(16, k+1000)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("key %d recovered wrong version", k)
		}
	}
	// The recovered store accepts new writes.
	if err := s2.Put(9999, val(16, 9999)); err != nil {
		t.Fatal(err)
	}
	if found, _ := s2.Get(9999, dst); !found || !bytes.Equal(dst, val(16, 9999)) {
		t.Fatal("write after recovery failed")
	}
}

func TestRecoverPreservesStaleness(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6,
		MutablePages: 2, StalenessBound: 100,
	}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	dst := make([]byte, 8)
	for i := 0; i < 5; i++ {
		s.Get(1, dst) // staleness -> 5
	}
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, _ := Open(cfg)
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	if stal := recordStaleness(t, st2, s2, 1); stal != 5 {
		t.Fatalf("recovered staleness = %d, want 5", stal)
	}
}

func TestOpenWithoutCheckpointStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	s.Close()
	st.Close() // no checkpoint

	st2, _ := Open(cfg)
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	dst := make([]byte, 8)
	if found, _ := s2.Get(1, dst); found {
		t.Fatal("store without checkpoint should start empty")
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	s.Close()
	st.Checkpoint()
	st.Close()

	// Flip a byte in the metadata.
	meta := filepath.Join(dir, metaFile)
	buf, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	buf[10] ^= 0xff
	os.WriteFile(meta, buf, 0o644)
	if _, err := Open(cfg); err == nil {
		t.Fatal("corrupt checkpoint should be rejected")
	}

	// Truncated metadata likewise.
	os.WriteFile(meta, buf[:7], 0o644)
	if _, err := Open(cfg); err == nil {
		t.Fatal("truncated checkpoint should be rejected")
	}
}

func TestCheckpointValueSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	st.Checkpoint()
	st.Close()
	cfg.ValueSize = 16
	if _, err := Open(cfg); err == nil {
		t.Fatal("ValueSize mismatch should be rejected")
	}
}

func TestCheckpointTwice(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Put(2, val(8, 2))
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st.Close()

	st2, _ := Open(cfg)
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	dst := make([]byte, 8)
	for k := uint64(1); k <= 2; k++ {
		if found, _ := s2.Get(k, dst); !found || !bytes.Equal(dst, val(8, k)) {
			t.Fatalf("key %d lost across incremental checkpoints", k)
		}
	}
}

func TestRecoverKeyZero(t *testing.T) {
	// Regression: key 0's first version has header 0 and no predecessor,
	// which the recovery scan used to misread as an unallocated gap slot
	// and drop. Only fully zero records (value included) are gaps.
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 16, RecordsPerPage: 32, MemPages: 6,
		MutablePages: 2, StalenessBound: 0, ExpectedKeys: 64,
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := st.NewSession()
	want := val(16, 12345)
	if err := s.Put(0, want); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	got := make([]byte, 16)
	found, err := s2.Peek(0, got)
	if err != nil || !found {
		t.Fatalf("key 0 after recovery: found=%v err=%v", found, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("key 0 value: got %v want %v", got, want)
	}
}

// TestAbandonedAppendNotResurrected forces the index-CAS loss that leaves
// an abandoned record in the log — a copy-to-tail of the old value that a
// concurrent Put beats to the index but not to the tail, so the loser sits
// at the higher address — then checkpoints and reopens. Recovery re-indexes
// by address order, so unless the loser was erased it shadows the Put. Both
// copy sources are covered: a disk record (Prefetch, or a clocked Get) and
// a read-only in-memory record (a clocked Get).
func TestAbandonedAppendNotResurrected(t *testing.T) {
	const key, vs = uint64(7), 16
	oldVal, newVal := val(vs, 1), val(vs, 2)
	for _, tc := range []struct {
		name string
		// cold leaves key's only record outside the mutable region and
		// reports the region a chain walk must find it in.
		cold func(t *testing.T, cfg Config) (*Store, region)
	}{
		{"disk", func(t *testing.T, cfg Config) (*Store, region) {
			st := mustOpen(t, cfg)
			mustPut(t, st, key, oldVal)
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			return mustOpen(t, cfg), regionDisk // recovered records are all disk-resident
		}},
		{"readOnly", func(t *testing.T, cfg Config) (*Store, region) {
			st := mustOpen(t, cfg)
			mustPut(t, st, key, oldVal)
			// Opening page 1 freezes page 0 (MutablePages is 1).
			for k := uint64(100); k < 100+uint64(cfg.RecordsPerPage); k++ {
				mustPut(t, st, k, oldVal)
			}
			return st, regionReadOnly
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// MemPages is large enough that no allocation below has to
			// recycle a frame, which would wait on the protected loser.
			cfg := Config{
				Dir: t.TempDir(), ValueSize: vs, RecordsPerPage: 8, MemPages: 8,
				MutablePages: 1, StalenessBound: BoundAsync,
			}
			st, want := tc.cold(t, cfg)
			loser, _ := st.NewSession()
			loser.es.Protect()
			hit, err := loser.findKey(key, false)
			if err != nil || hit.addr == InvalidAddr || hit.reg != want {
				t.Fatalf("findKey: addr=%d region=%v err=%v, want region %v", hit.addr, hit.reg, err, want)
			}
			hdr := hit.diskRec.hdr
			if want == regionReadOnly {
				hdr = hit.f.hdrs[hit.slot].Load()
			}
			mustPut(t, st, key, newVal) // takes the lower tail address and the index entry
			ok, err := loser.copyToTail(key, hdr&^lockedBit, oldVal, hit)
			loser.es.Unprotect()
			loser.Close()
			if err != nil || ok {
				t.Fatalf("stale copy-to-tail: ok=%v err=%v, want a lost CAS", ok, err)
			}
			if n := st.Stats().AbandonedAppends; n != 1 {
				t.Fatalf("AbandonedAppends = %d, want 1", n)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st = mustOpen(t, cfg)
			defer st.Close()
			s, _ := st.NewSession()
			defer s.Close()
			got := make([]byte, vs)
			if found, err := s.Get(key, got); err != nil || !found || !bytes.Equal(got, newVal) {
				t.Fatalf("after reopen: found=%v err=%v, value is the Put's: %v", found, err, bytes.Equal(got, newVal))
			}
		})
	}
}

// TestSkippedSlotRecoversAsGap drives allocate's other way of abandoning a
// slot — handed out, then seen frozen before anything was written to it —
// on a frame that has held an earlier page, whose bytes the slot would
// otherwise keep. After a checkpoint and reopen the slot must be a gap: with
// stale value bytes it reads as a record of key 0 and, sitting above the
// real one, replaces it.
func TestSkippedSlotRecoversAsGap(t *testing.T) {
	const vs, rpp = 8, 16
	cfg := Config{
		Dir: t.TempDir(), ValueSize: vs, RecordsPerPage: rpp, MemPages: 4,
		MutablePages: 1, StalenessBound: BoundAsync,
	}
	st := mustOpen(t, cfg)
	zero := val(vs, 99)
	mustPut(t, st, 0, zero)
	for k := uint64(1); k < 6*rpp; k++ { // into page 6: every frame reused
		mustPut(t, st, k, val(vs, k))
	}
	// Freeze the next slot under the allocator, as the opener of a later
	// page does to one that waited for its own page across the bump.
	next, ro := st.log.nextAddr.Load(), st.log.roAddr.Load()
	if st.log.slotOf(next) == 0 || st.log.pageOf(next) < int64(cfg.MemPages) {
		t.Fatalf("next address %d is not mid-page on a reused frame", next)
	}
	st.log.roAddr.Store(next + 1)
	mustPut(t, st, 1000, val(vs, 1000))
	st.log.roAddr.Store(ro)
	if n := st.Stats().AbandonedAppends; n != 1 {
		t.Fatalf("AbandonedAppends = %d, want the one skipped slot", n)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = mustOpen(t, cfg)
	defer st.Close()
	s, _ := st.NewSession()
	defer s.Close()
	got := make([]byte, vs)
	for _, k := range []uint64{0, 1000} {
		want := zero
		if k != 0 {
			want = val(vs, k)
		}
		if found, err := s.Peek(k, got); err != nil || !found || !bytes.Equal(got, want) {
			t.Fatalf("key %d after reopen: found=%v err=%v value % x, want % x", k, found, err, got, want)
		}
	}
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mustPut writes through a throwaway session.
func mustPut(t *testing.T, st *Store, key uint64, v []byte) {
	t.Helper()
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(key, v); err != nil {
		t.Fatal(err)
	}
}
