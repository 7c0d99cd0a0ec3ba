package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Config parameterizes the B+tree store.
type Config struct {
	Dir        string
	ValueSize  int
	PageSize   int // default 4096
	PoolPages  int // buffer-pool capacity in pages (default 1024)
	SyncWrites bool
}

func (c *Config) setDefaults() error {
	if c.Dir == "" {
		return errors.New("bptree: Dir is required")
	}
	if c.ValueSize <= 0 {
		return errors.New("bptree: ValueSize must be positive")
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PoolPages == 0 {
		c.PoolPages = 1024
	}
	if leafCapacity(c.PageSize, c.ValueSize) < 2 {
		return fmt.Errorf("bptree: PageSize %d too small for ValueSize %d", c.PageSize, c.ValueSize)
	}
	return nil
}

// Meta page (page 0): magic:8 | root:8 | nextPage:8 | valueSize:8 | height:8.
const (
	metaMagic = uint64(0x4d4c4b5642545231) // "MLKVBTR1"
)

// Store is the disk B+tree.
type Store struct {
	cfg    Config
	file   *os.File
	pager  *pager
	treeMu sync.RWMutex // structure lock: shared for leaf ops, exclusive for splits

	metaMu   sync.Mutex
	root     uint64
	nextPage uint64
	height   int

	maxLeaf     int
	maxInternal int
}

// Open creates or reopens a B+tree store in cfg.Dir.
func Open(cfg Config) (*Store, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.Dir, "btree.dat")
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:         cfg,
		file:        file,
		pager:       newPager(file, cfg.PageSize, cfg.PoolPages),
		maxLeaf:     leafCapacity(cfg.PageSize, cfg.ValueSize),
		maxInternal: internalCapacity(cfg.PageSize),
	}
	st, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if err := s.initialize(); err != nil {
			file.Close()
			return nil, err
		}
	} else if err := s.loadMeta(); err != nil {
		file.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) initialize() error {
	// Page 0 = meta, page 1 = empty root leaf.
	s.root = 1
	s.nextPage = 2
	s.height = 1
	rootPage := make([]byte, s.cfg.PageSize)
	n := node{data: rootPage, vs: s.cfg.ValueSize}
	n.setKind(kindLeaf)
	if _, err := s.file.WriteAt(rootPage, int64(s.cfg.PageSize)); err != nil {
		return err
	}
	return s.writeMeta()
}

func (s *Store) writeMeta() error {
	buf := make([]byte, s.cfg.PageSize)
	binary.LittleEndian.PutUint64(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[8:], s.root)
	binary.LittleEndian.PutUint64(buf[16:], s.nextPage)
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.cfg.ValueSize))
	binary.LittleEndian.PutUint64(buf[32:], uint64(s.height))
	_, err := s.file.WriteAt(buf, 0)
	return err
}

func (s *Store) loadMeta() error {
	buf := make([]byte, s.cfg.PageSize)
	if _, err := s.file.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("bptree: read meta: %w", err)
	}
	if binary.LittleEndian.Uint64(buf) != metaMagic {
		return errors.New("bptree: bad meta magic")
	}
	s.root = binary.LittleEndian.Uint64(buf[8:])
	s.nextPage = binary.LittleEndian.Uint64(buf[16:])
	if vs := binary.LittleEndian.Uint64(buf[24:]); int(vs) != s.cfg.ValueSize {
		return fmt.Errorf("bptree: ValueSize %d != configured %d", vs, s.cfg.ValueSize)
	}
	s.height = int(binary.LittleEndian.Uint64(buf[32:]))
	return nil
}

func (s *Store) allocPage() uint64 {
	s.metaMu.Lock()
	id := s.nextPage
	s.nextPage++
	s.metaMu.Unlock()
	return id
}

// descendToLeaf walks from the root to the leaf covering key, pinning only
// one page at a time. Caller holds the tree lock (shared or exclusive).
func (s *Store) descendToLeaf(key uint64) (*pframe, error) {
	id := s.root
	for {
		f, err := s.pager.fetch(id)
		if err != nil {
			return nil, err
		}
		f.latch.RLock()
		n := node{data: f.data, vs: s.cfg.ValueSize}
		if n.kind() == kindLeaf {
			f.latch.RUnlock()
			return f, nil
		}
		next := n.child(n.childFor(key), s.maxInternal)
		f.latch.RUnlock()
		s.pager.unpin(f, false)
		id = next
	}
}

// get reads key's value.
func (s *Store) get(key uint64, dst []byte) (bool, error) {
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	f, err := s.descendToLeaf(key)
	if err != nil {
		return false, err
	}
	defer s.pager.unpin(f, false)
	f.latch.RLock()
	defer f.latch.RUnlock()
	n := node{data: f.data, vs: s.cfg.ValueSize}
	i, ok := n.leafSearch(key)
	if !ok || n.leafMeta(i)&metaTombstone != 0 {
		return false, nil
	}
	copy(dst, n.leafVal(i))
	return true, nil
}

// put upserts key. The fast path (existing key, or room in the leaf) runs
// under the shared tree lock with a leaf write latch; splits retry under the
// exclusive lock.
func (s *Store) put(key uint64, val []byte, tomb bool) error {
	meta := uint64(0)
	if tomb {
		meta = metaTombstone
	}
	s.treeMu.RLock()
	full, err := s.putShared(key, meta, val)
	s.treeMu.RUnlock()
	if err != nil || !full {
		return err
	}
	// Leaf is full: restart with the exclusive structure lock.
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return s.insertExclusive(key, meta, val)
}

// putShared attempts the fast-path upsert (existing key, or room in the
// leaf) with a leaf write latch. It returns full=true when the leaf needs a
// split, which requires the exclusive lock. Caller holds treeMu shared.
func (s *Store) putShared(key, meta uint64, val []byte) (full bool, err error) {
	f, err := s.descendToLeaf(key)
	if err != nil {
		return false, err
	}
	f.latch.Lock()
	n := node{data: f.data, vs: s.cfg.ValueSize}
	if i, ok := n.leafSearch(key); ok {
		n.setLeafEntry(i, key, meta, val)
		f.latch.Unlock()
		s.pager.unpin(f, true)
		return false, nil
	} else if n.count() < s.maxLeaf {
		n.leafInsertAt(i, key, meta, val)
		f.latch.Unlock()
		s.pager.unpin(f, true)
		return false, nil
	}
	f.latch.Unlock()
	s.pager.unpin(f, false)
	return true, nil
}

// getBatch reads keys[i] into vals[i*vs:(i+1)*vs] under one acquisition of
// the shared tree lock.
func (s *Store) getBatch(keys []uint64, vals []byte, found []bool) error {
	vs := s.cfg.ValueSize
	s.treeMu.RLock()
	defer s.treeMu.RUnlock()
	for bi, key := range keys {
		f, err := s.descendToLeaf(key)
		if err != nil {
			return err
		}
		f.latch.RLock()
		n := node{data: f.data, vs: vs}
		i, ok := n.leafSearch(key)
		if ok && n.leafMeta(i)&metaTombstone == 0 {
			copy(vals[bi*vs:(bi+1)*vs], n.leafVal(i))
			found[bi] = true
		} else {
			found[bi] = false
		}
		f.latch.RUnlock()
		s.pager.unpin(f, false)
	}
	return nil
}

// putBatch upserts all keys: the fast path runs for every key under one
// shared-lock acquisition; keys that landed on full leaves are retried
// under one exclusive-lock acquisition, splitting as needed.
func (s *Store) putBatch(keys []uint64, vals []byte) error {
	vs := s.cfg.ValueSize
	var overflow []int
	s.treeMu.RLock()
	for i, key := range keys {
		full, err := s.putShared(key, 0, vals[i*vs:(i+1)*vs])
		if err != nil {
			s.treeMu.RUnlock()
			return err
		}
		if full {
			overflow = append(overflow, i)
		}
	}
	s.treeMu.RUnlock()
	if len(overflow) == 0 {
		return nil
	}
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	for _, i := range overflow {
		if err := s.insertExclusive(keys[i], 0, vals[i*vs:(i+1)*vs]); err != nil {
			return err
		}
	}
	return nil
}

// insertExclusive inserts under the exclusive tree lock, splitting as
// needed. No latches are required: the lock excludes all other operations.
func (s *Store) insertExclusive(key, meta uint64, val []byte) error {
	// Walk down, remembering the path.
	type step struct {
		f   *pframe
		idx int
	}
	var path []step
	release := func() {
		for _, st := range path {
			s.pager.unpin(st.f, true) // conservatively mark dirty
		}
	}
	id := s.root
	for {
		f, err := s.pager.fetch(id)
		if err != nil {
			release()
			return err
		}
		n := node{data: f.data, vs: s.cfg.ValueSize}
		if n.kind() == kindLeaf {
			path = append(path, step{f: f})
			break
		}
		idx := n.childFor(key)
		path = append(path, step{f: f, idx: idx})
		id = n.child(idx, s.maxInternal)
	}
	leafStep := path[len(path)-1]
	leaf := node{data: leafStep.f.data, vs: s.cfg.ValueSize}
	if i, ok := leaf.leafSearch(key); ok {
		leaf.setLeafEntry(i, key, meta, val)
		release()
		return nil
	} else if leaf.count() < s.maxLeaf {
		leaf.leafInsertAt(i, key, meta, val)
		release()
		return nil
	}

	// Split the leaf: move the upper half to a new page.
	newID := s.allocPage()
	nf, err := s.pager.fetchNew(newID)
	if err != nil {
		release()
		return err
	}
	nn := node{data: nf.data, vs: s.cfg.ValueSize}
	nn.setKind(kindLeaf)
	mid := leaf.count() / 2
	moved := leaf.count() - mid
	es := leaf.leafEntrySize()
	copy(nn.data[pageHeaderSize:pageHeaderSize+moved*es],
		leaf.data[pageHeaderSize+mid*es:pageHeaderSize+leaf.count()*es])
	nn.setCount(moved)
	nn.setNext(leaf.next())
	leaf.setCount(mid)
	leaf.setNext(newID)
	sepKey := nn.leafKey(0)
	// Insert into the correct half.
	if key >= sepKey {
		i, ok := nn.leafSearch(key)
		if ok {
			nn.setLeafEntry(i, key, meta, val)
		} else {
			nn.leafInsertAt(i, key, meta, val)
		}
	} else {
		i, _ := leaf.leafSearch(key)
		leaf.leafInsertAt(i, key, meta, val)
	}
	s.pager.unpin(nf, true)

	// Propagate the separator up the path.
	upKey, rightID := sepKey, newID
	for lvl := len(path) - 2; lvl >= 0; lvl-- {
		pf := path[lvl].f
		pn := node{data: pf.data, vs: s.cfg.ValueSize}
		if pn.count() < s.maxInternal {
			pn.internalInsertAt(path[lvl].idx, upKey, rightID, s.maxInternal)
			release()
			return nil
		}
		// Split the internal node.
		nid := s.allocPage()
		rf, err := s.pager.fetchNew(nid)
		if err != nil {
			release()
			return err
		}
		rn := node{data: rf.data, vs: s.cfg.ValueSize}
		rn.setKind(kindInternal)
		c := pn.count()
		midk := c / 2
		promote := pn.internalKey(midk)
		// Right node takes keys (midk, c) and children (midk+1 .. c].
		rc := c - midk - 1
		for i := 0; i < rc; i++ {
			rn.setInternalKey(i, pn.internalKey(midk+1+i))
		}
		for i := 0; i <= rc; i++ {
			rn.setChild(i, s.maxInternal, pn.child(midk+1+i, s.maxInternal))
		}
		rn.setCount(rc)
		pn.setCount(midk)
		// Insert the pending separator into the proper half.
		if upKey >= promote {
			idx := rn.childFor(upKey)
			rn.internalInsertAt(idx, upKey, rightID, s.maxInternal)
		} else {
			idx := pn.childFor(upKey)
			pn.internalInsertAt(idx, upKey, rightID, s.maxInternal)
		}
		s.pager.unpin(rf, true)
		upKey, rightID = promote, nid
	}

	// Root split: grow the tree by one level.
	newRootID := s.allocPage()
	rf, err := s.pager.fetchNew(newRootID)
	if err != nil {
		release()
		return err
	}
	rn := node{data: rf.data, vs: s.cfg.ValueSize}
	rn.setKind(kindInternal)
	rn.setCount(1)
	rn.setInternalKey(0, upKey)
	rn.setChild(0, s.maxInternal, s.root)
	rn.setChild(1, s.maxInternal, rightID)
	s.pager.unpin(rf, true)
	s.metaMu.Lock()
	s.root = newRootID
	s.height++
	s.metaMu.Unlock()
	release()
	return nil
}

// Sync flushes dirty pages and the metadata to the file without closing,
// making everything written so far recoverable — the engine's checkpoint.
func (s *Store) Sync() error {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	if err := s.pager.flushAll(); err != nil {
		return err
	}
	s.metaMu.Lock()
	err := s.writeMeta()
	s.metaMu.Unlock()
	if err != nil {
		return err
	}
	return s.file.Sync()
}

// Close flushes dirty pages and the metadata.
func (s *Store) Close() error {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	if err := s.pager.flushAll(); err != nil {
		s.file.Close()
		return err
	}
	s.metaMu.Lock()
	err := s.writeMeta()
	s.metaMu.Unlock()
	if err != nil {
		s.file.Close()
		return err
	}
	if s.cfg.SyncWrites {
		if err := s.file.Sync(); err != nil {
			s.file.Close()
			return err
		}
	}
	return s.file.Close()
}

// ValueSize returns the fixed value size.
func (s *Store) ValueSize() int { return s.cfg.ValueSize }

// Name identifies the engine.
func (s *Store) Name() string { return "bptree" }

// Height returns the tree height (diagnostics).
func (s *Store) Height() int {
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	return s.height
}

// IOStats reports pager counters (reads, writes, pool hits).
func (s *Store) IOStats() (reads, writes, hits int64) { return s.pager.stats() }

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
		return false, errors.New("bptree: buffer length must equal ValueSize")
	}
	return se.s.get(key, dst)
}

// Put upserts key.
func (se *Session) Put(key uint64, val []byte) error {
	if len(val) != se.s.cfg.ValueSize {
		return errors.New("bptree: buffer length must equal ValueSize")
	}
	return se.s.put(key, val, false)
}

// Delete removes key (tombstone; space is reused on reinsert).
func (se *Session) Delete(key uint64) error {
	clear(se.scratch)
	return se.s.put(key, se.scratch, true)
}

// GetBatch reads keys[i] into vals[i*vs:(i+1)*vs], setting found[i], under
// one acquisition of the shared tree lock.
func (se *Session) GetBatch(keys []uint64, vals []byte, found []bool) error {
	vs := se.s.cfg.ValueSize
	if len(vals) != len(keys)*vs || len(found) != len(keys) {
		return errors.New("bptree: batch buffer lengths must match len(keys)")
	}
	return se.s.getBatch(keys, vals, found)
}

// PutBatch upserts keys[i] = vals[i*vs:(i+1)*vs]; fast-path inserts share
// one lock acquisition, overflowing leaves split under one exclusive pass.
func (se *Session) PutBatch(keys []uint64, vals []byte) error {
	vs := se.s.cfg.ValueSize
	if len(vals) != len(keys)*vs {
		return errors.New("bptree: batch buffer lengths must match len(keys)")
	}
	return se.s.putBatch(keys, vals)
}

// Prefetch pulls key's leaf page into the buffer pool.
func (se *Session) Prefetch(key uint64) (bool, error) {
	return se.s.get(key, se.scratch)
}

// Close releases the session (no-op).
func (se *Session) Close() {}
