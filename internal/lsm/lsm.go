package lsm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Config parameterizes the LSM store.
type Config struct {
	Dir           string
	ValueSize     int
	MemtableBytes int // flush threshold (default 4 MiB)
	CacheBytes    int // block cache capacity (default 16 MiB)
	L0Limit       int // L0 table count triggering compaction (default 4)
	LevelRatio    int // size ratio between levels (default 10)
	TableEntries  int // target records per table on compaction (default 64Ki)
	SyncWAL       bool
}

func (c *Config) setDefaults() error {
	if c.Dir == "" {
		return errors.New("lsm: Dir is required")
	}
	if c.ValueSize <= 0 {
		return errors.New("lsm: ValueSize must be positive")
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 4 << 20
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 16 << 20
	}
	if c.L0Limit == 0 {
		c.L0Limit = 4
	}
	if c.LevelRatio == 0 {
		c.LevelRatio = 10
	}
	if c.TableEntries == 0 {
		c.TableEntries = 64 << 10
	}
	return nil
}

// version is an immutable snapshot of the table tree. levels[0] is ordered
// newest-first and may overlap; deeper levels are key-disjoint and sorted.
type version struct {
	levels [][]*sstable
}

// Store is the LSM-tree store.
type Store struct {
	cfg   Config
	cache *blockCache

	mu       sync.Mutex // guards memtable rotation, WAL, version installs
	mem      *memtable
	imm      []*memtable // oldest first
	immWAL   []string    // archived WAL path per immutable memtable
	walSeq   uint64
	wal      *os.File
	walPath  string
	ver      atomic.Pointer[version]
	nextFile uint64
	obsolete []*sstable // replaced tables, closed and deleted at Close

	flushSignal chan struct{}
	done        chan struct{}
	bg          sync.WaitGroup
	bgErr       atomic.Value // error

	flushing   sync.Mutex // serializes flushImmutables (bg vs Flush)
	compacting sync.Mutex // serializes compactions
}

type manifest struct {
	Levels   [][]uint64 `json:"levels"`
	NextFile uint64     `json:"next_file"`
}

// Open creates or reopens an LSM store in cfg.Dir.
func Open(cfg Config) (*Store, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:         cfg,
		cache:       newBlockCache(cfg.CacheBytes),
		mem:         newMemtable(1),
		flushSignal: make(chan struct{}, 1),
		done:        make(chan struct{}),
		nextFile:    1,
	}
	v := &version{levels: make([][]*sstable, 1)}
	s.ver.Store(v)
	if err := s.loadManifest(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.bg.Add(1)
	go s.background()
	return s, nil
}

func (s *Store) tablePath(num uint64) string {
	return filepath.Join(s.cfg.Dir, fmt.Sprintf("%06d.sst", num))
}

func (s *Store) loadManifest() error {
	buf, err := os.ReadFile(filepath.Join(s.cfg.Dir, "MANIFEST"))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return fmt.Errorf("lsm: corrupt manifest: %w", err)
	}
	v := &version{levels: make([][]*sstable, len(m.Levels))}
	for li, nums := range m.Levels {
		for _, num := range nums {
			t, err := openTable(s.tablePath(num), num, s.cfg.ValueSize)
			if err != nil {
				return err
			}
			v.levels[li] = append(v.levels[li], t)
		}
	}
	if len(v.levels) == 0 {
		v.levels = make([][]*sstable, 1)
	}
	s.ver.Store(v)
	s.nextFile = m.NextFile
	return nil
}

// saveManifest persists the current version. Callers hold s.mu.
func (s *Store) saveManifest() error {
	v := s.ver.Load()
	m := manifest{NextFile: s.nextFile, Levels: make([][]uint64, len(v.levels))}
	for li, lvl := range v.levels {
		for _, t := range lvl {
			m.Levels[li] = append(m.Levels[li], t.num)
		}
	}
	buf, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.cfg.Dir, "MANIFEST.tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.cfg.Dir, "MANIFEST"))
}

// WAL record: key(8) | meta(8) | value(vs).
func (s *Store) openWAL() error {
	s.walPath = filepath.Join(s.cfg.Dir, "wal.log")
	f, err := os.OpenFile(s.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	return nil
}

func (s *Store) replayWAL() error {
	// Archived WALs (from memtables rotated but not yet flushed when the
	// process died) replay first, oldest to newest, then the live WAL.
	arch, err := filepath.Glob(filepath.Join(s.cfg.Dir, "wal.log.*"))
	if err != nil {
		return err
	}
	sort.Strings(arch)
	for _, p := range append(arch, filepath.Join(s.cfg.Dir, "wal.log")) {
		if err := s.replayOneWAL(p); err != nil {
			return err
		}
		if p != filepath.Join(s.cfg.Dir, "wal.log") {
			os.Remove(p)
		}
	}
	return nil
}

func (s *Store) replayOneWAL(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	rec := make([]byte, 16+s.cfg.ValueSize)
	for {
		_, err := io.ReadFull(f, rec)
		if err == io.EOF {
			return nil
		}
		if err == io.ErrUnexpectedEOF {
			return nil // torn tail record from a crash; discard
		}
		if err != nil {
			return err
		}
		key := binary.LittleEndian.Uint64(rec)
		tomb := binary.LittleEndian.Uint64(rec[8:])&metaTombstone != 0
		s.mem.put(key, rec[16:], tomb)
	}
}

func (s *Store) appendWAL(key uint64, val []byte, tomb bool) error {
	rec := make([]byte, 16+s.cfg.ValueSize)
	binary.LittleEndian.PutUint64(rec, key)
	meta := uint64(0)
	if tomb {
		meta = metaTombstone
	}
	binary.LittleEndian.PutUint64(rec[8:], meta)
	copy(rec[16:], val)
	if _, err := s.wal.Write(rec); err != nil {
		return err
	}
	if s.cfg.SyncWAL {
		return s.wal.Sync()
	}
	return nil
}

// put is the shared write path.
func (s *Store) put(key uint64, val []byte, tomb bool) error {
	if err, _ := s.bgErr.Load().(error); err != nil {
		return err
	}
	s.mu.Lock()
	if err := s.appendWAL(key, val, tomb); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mem.put(key, val, tomb)
	if s.mem.bytes() >= s.cfg.MemtableBytes {
		s.rotateMemtableLocked()
	}
	s.mu.Unlock()
	return nil
}

// rotateMemtableLocked moves the active memtable to the immutable queue and
// starts a fresh one with a fresh WAL. Caller holds s.mu.
func (s *Store) rotateMemtableLocked() {
	s.imm = append(s.imm, s.mem)
	s.mem = newMemtable(uint64(len(s.imm)) + 2)
	s.wal.Close()
	// The old WAL's contents are safe in the immutable memtable (it will be
	// flushed shortly); a crash before the flush replays the archived WAL.
	s.walSeq++
	arch := fmt.Sprintf("%s.%06d", s.walPath, s.walSeq)
	os.Rename(s.walPath, arch)
	s.immWAL = append(s.immWAL, arch)
	s.openWAL()
	select {
	case s.flushSignal <- struct{}{}:
	default:
	}
}

// get is the shared read path.
func (s *Store) get(key uint64, dst []byte) (bool, error) {
	if err, _ := s.bgErr.Load().(error); err != nil {
		return false, err
	}
	// Snapshot the memtable pointers under the lock (rotation swaps them).
	s.mu.Lock()
	mem := s.mem
	imm := make([]*memtable, len(s.imm))
	copy(imm, s.imm)
	s.mu.Unlock()
	return s.getSnapshot(key, dst, mem, imm, s.ver.Load())
}

// getSnapshot resolves one key against an already-captured view of the
// store, so batch reads pay the snapshot lock once rather than per key.
func (s *Store) getSnapshot(key uint64, dst []byte, mem *memtable, imm []*memtable, v *version) (bool, error) {
	// 1. Active memtable.
	if ok, tomb := mem.get(key, dst); ok {
		return !tomb, nil
	}
	// 2. Immutable memtables, newest first.
	for i := len(imm) - 1; i >= 0; i-- {
		if ok, tomb := imm[i].get(key, dst); ok {
			return !tomb, nil
		}
	}
	// 3. Tables.
	for i := len(v.levels[0]) - 1; i >= 0; i-- { // L0 newest first
		ok, tomb, err := v.levels[0][i].get(key, dst, s.cache)
		if err != nil {
			return false, err
		}
		if ok {
			return !tomb, nil
		}
	}
	for li := 1; li < len(v.levels); li++ {
		lvl := v.levels[li]
		i := sort.Search(len(lvl), func(i int) bool { return lvl[i].maxKey >= key })
		if i == len(lvl) || lvl[i].minKey > key {
			continue
		}
		ok, tomb, err := lvl[i].get(key, dst, s.cache)
		if err != nil {
			return false, err
		}
		if ok {
			return !tomb, nil
		}
	}
	return false, nil
}

// getBatch reads keys[i] into vals[i*vs:(i+1)*vs], capturing the
// memtable/version snapshot once for the whole batch.
func (s *Store) getBatch(keys []uint64, vals []byte, found []bool) error {
	if err, _ := s.bgErr.Load().(error); err != nil {
		return err
	}
	vs := s.cfg.ValueSize
	s.mu.Lock()
	mem := s.mem
	imm := make([]*memtable, len(s.imm))
	copy(imm, s.imm)
	s.mu.Unlock()
	v := s.ver.Load()
	for i, key := range keys {
		ok, err := s.getSnapshot(key, vals[i*vs:(i+1)*vs], mem, imm, v)
		if err != nil {
			return err
		}
		found[i] = ok
	}
	return nil
}

// putBatch upserts all keys under one lock acquisition with a single WAL
// write. The memtable may overshoot MemtableBytes by at most one batch;
// rotation is checked once at the end.
func (s *Store) putBatch(keys []uint64, vals []byte) error {
	if err, _ := s.bgErr.Load().(error); err != nil {
		return err
	}
	vs := s.cfg.ValueSize
	rec := make([]byte, len(keys)*(16+vs))
	for i, key := range keys {
		off := i * (16 + vs)
		binary.LittleEndian.PutUint64(rec[off:], key)
		binary.LittleEndian.PutUint64(rec[off+8:], 0)
		copy(rec[off+16:], vals[i*vs:(i+1)*vs])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.wal.Write(rec); err != nil {
		return err
	}
	if s.cfg.SyncWAL {
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	for i, key := range keys {
		s.mem.put(key, vals[i*vs:(i+1)*vs], false)
	}
	if s.mem.bytes() >= s.cfg.MemtableBytes {
		s.rotateMemtableLocked()
	}
	return nil
}

// background runs flushes and compactions.
func (s *Store) background() {
	defer s.bg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.flushSignal:
			if err := s.flushImmutables(); err != nil {
				s.bgErr.Store(err)
				return
			}
			if err := s.maybeCompact(); err != nil {
				s.bgErr.Store(err)
				return
			}
		}
	}
}

// flushImmutables writes every queued immutable memtable to an L0 table.
func (s *Store) flushImmutables() error {
	s.flushing.Lock()
	defer s.flushing.Unlock()
	for {
		s.mu.Lock()
		if len(s.imm) == 0 {
			s.mu.Unlock()
			return nil
		}
		mt := s.imm[0]
		arch := s.immWAL[0]
		s.mu.Unlock()

		recs := memtableRecs(mt)
		s.mu.Lock()
		num := s.nextFile
		s.nextFile++
		s.mu.Unlock()
		t, err := writeTable(s.tablePath(num), num, recs, s.cfg.ValueSize)
		if err != nil {
			return err
		}

		s.mu.Lock()
		old := s.ver.Load()
		nv := cloneVersion(old)
		nv.levels[0] = append(nv.levels[0], t) // newest last
		s.ver.Store(nv)
		s.imm = s.imm[1:]
		s.immWAL = s.immWAL[1:]
		if err := s.saveManifest(); err != nil {
			s.mu.Unlock()
			return err
		}
		os.Remove(arch)
		s.mu.Unlock()
	}
}

func memtableRecs(mt *memtable) []tableRec {
	es := mt.all()
	recs := make([]tableRec, len(es))
	for i, e := range es {
		recs[i] = tableRec{key: e.key, val: e.val, tomb: e.tomb}
	}
	return recs
}

func cloneVersion(v *version) *version {
	nv := &version{levels: make([][]*sstable, len(v.levels))}
	for i := range v.levels {
		nv.levels[i] = append([]*sstable(nil), v.levels[i]...)
	}
	return nv
}

// Flush forces the active memtable to disk (mainly for tests/benchmarks).
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.mem.count() > 0 {
		s.rotateMemtableLocked()
	}
	s.mu.Unlock()
	if err := s.flushImmutables(); err != nil {
		return err
	}
	return s.maybeCompact()
}

// CacheStats exposes block-cache hit/miss counters.
func (s *Store) CacheStats() (hits, misses int64) { return s.cache.stats() }

// Close flushes and shuts down.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	close(s.done)
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal.Close()
	v := s.ver.Load()
	for _, lvl := range v.levels {
		for _, t := range lvl {
			t.close()
		}
	}
	for _, t := range s.obsolete {
		t.close()
		os.Remove(t.path)
	}
	if err, _ := s.bgErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// ValueSize returns the fixed value size.
func (s *Store) ValueSize() int { return s.cfg.ValueSize }

// Name identifies the engine.
func (s *Store) Name() string { return "lsm" }

// Session is one worker's operation handle. The store is internally
// synchronized; the session only owns scratch, so like every engine
// session it belongs to one goroutine.
type Session struct {
	s       *Store
	scratch []byte // one value: Prefetch's read target, Delete's tombstone payload
}

// NewSession returns an operation handle.
func (s *Store) NewSession() (*Session, error) {
	return &Session{s: s, scratch: make([]byte, s.cfg.ValueSize)}, nil
}

// Get reads key into dst.
func (se *Session) Get(key uint64, dst []byte) (bool, error) {
	if len(dst) != se.s.cfg.ValueSize {
		return false, errors.New("lsm: buffer length must equal ValueSize")
	}
	return se.s.get(key, dst)
}

// Put upserts key.
func (se *Session) Put(key uint64, val []byte) error {
	if len(val) != se.s.cfg.ValueSize {
		return errors.New("lsm: buffer length must equal ValueSize")
	}
	return se.s.put(key, val, false)
}

// Delete removes key.
func (se *Session) Delete(key uint64) error {
	clear(se.scratch)
	return se.s.put(key, se.scratch, true)
}

// GetBatch reads keys[i] into vals[i*vs:(i+1)*vs], setting found[i]. The
// memtable/version snapshot is captured once for the whole batch instead of
// once per key.
func (se *Session) GetBatch(keys []uint64, vals []byte, found []bool) error {
	vs := se.s.cfg.ValueSize
	if len(vals) != len(keys)*vs || len(found) != len(keys) {
		return errors.New("lsm: batch buffer lengths must match len(keys)")
	}
	return se.s.getBatch(keys, vals, found)
}

// PutBatch upserts keys[i] = vals[i*vs:(i+1)*vs] under one lock
// acquisition with a single WAL write.
func (se *Session) PutBatch(keys []uint64, vals []byte) error {
	vs := se.s.cfg.ValueSize
	if len(vals) != len(keys)*vs {
		return errors.New("lsm: batch buffer lengths must match len(keys)")
	}
	return se.s.putBatch(keys, vals)
}

// Prefetch pulls key's block into the block cache.
func (se *Session) Prefetch(key uint64) (bool, error) {
	return se.s.get(key, se.scratch)
}

// Close releases the session (no-op).
func (se *Session) Close() {}
