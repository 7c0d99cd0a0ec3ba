package faster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/epoch"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the directory holding the log and checkpoint files.
	Dir string
	// ValueSize is the fixed value payload size in bytes (an embedding
	// table's dim × 4 for float32 vectors).
	ValueSize int
	// RecordsPerPage is the number of records per log page (power of two).
	RecordsPerPage int
	// MemPages is the number of in-memory page frames: the store's memory
	// budget is MemPages × RecordsPerPage × (ValueSize + 24) bytes — a
	// record's value plus its header, key and chain words (see MemoryBytes).
	MemPages int
	// MutablePages is how many of the newest pages accept in-place updates.
	// Must be at least 1 and at most MemPages-2.
	MutablePages int
	// IndexBuckets is the hash-index size; defaults to one bucket per
	// expected 4 keys if ExpectedKeys is set, else 64Ki.
	IndexBuckets uint64
	// ExpectedKeys sizes the index when IndexBuckets is zero.
	ExpectedKeys uint64
	// StalenessBound configures MLKV's bounded-staleness consistency:
	//   0                — BSP (a read waits until no update is outstanding),
	//   1..2^31          — SSP with the given bound,
	//   BoundAsync, <0   — ASP, or the clock disabled: one protocol, plain
	//                      FASTER's, as no read can wait (see BlockingBound).
	StalenessBound int64
	// SyncWrites fsyncs every flushed page (off for benchmarks, as in the
	// paper's NVMe setup).
	SyncWrites bool
	// FlushPace, when positive, is the minimum gap the background flusher
	// leaves between consecutive flush writes, smearing flush I/O across
	// time instead of letting an eviction or checkpoint burst monopolize
	// the device while concurrent reads queue behind it. Zero disables
	// pacing (writes go back-to-back, merged by group commit).
	FlushPace time.Duration
	// MaxSessions bounds concurrent sessions (default 512).
	MaxSessions int
}

// BoundAsync is the staleness bound representing fully asynchronous (ASP)
// training; in practice INT64_MAX, as §III-C1 prescribes.
const BoundAsync = int64(math.MaxInt64)

func (c *Config) setDefaults() error {
	if c.ValueSize <= 0 {
		return errors.New("faster: ValueSize must be positive")
	}
	if c.RecordsPerPage == 0 {
		c.RecordsPerPage = 1024
	}
	if c.MemPages == 0 {
		c.MemPages = 64
	}
	if c.MutablePages == 0 {
		c.MutablePages = c.MemPages / 4
	}
	if c.MutablePages < 1 {
		c.MutablePages = 1
	}
	if c.MutablePages > c.MemPages-2 {
		return fmt.Errorf("faster: MutablePages (%d) must be <= MemPages-2 (%d)", c.MutablePages, c.MemPages-2)
	}
	if c.IndexBuckets == 0 {
		if c.ExpectedKeys > 0 {
			c.IndexBuckets = c.ExpectedKeys/4 + 1
		} else {
			c.IndexBuckets = 1 << 16
		}
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 512
	}
	return nil
}

// Store is a FASTER-style hybrid-log key-value store with MLKV's
// bounded-staleness extension. All operations go through a Session.
type Store struct {
	cfg      Config
	em       *epoch.Manager
	ix       *index
	log      *hybridLog
	bound    int64 // the staleness bound, fixed at open
	blocking bool  // BlockingBound(bound): the one clock switch

	// Operation counters are per session: one shared block would be a
	// cache line every key operation of every session writes. stats holds
	// what no session owns (the flusher's counters); Stats sums it, the
	// live sessions' blocks and closed, the total of the sessions gone.
	stats    Stats
	sessMu   sync.Mutex
	sessions map[*Session]struct{}
	closed   stats.Counters
}

// Open creates or opens a store in cfg.Dir. If a checkpoint exists it is
// recovered; otherwise the store starts empty.
func Open(cfg Config) (*Store, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		return nil, errors.New("faster: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, bound: cfg.StalenessBound, blocking: BlockingBound(cfg.StalenessBound), sessions: make(map[*Session]struct{})}
	st.em = epoch.NewManager(cfg.MaxSessions)
	st.ix = newIndex(cfg.IndexBuckets)
	var err error
	st.log, err = newHybridLog(filepath.Join(cfg.Dir, "hlog.dat"), cfg.ValueSize,
		cfg.RecordsPerPage, cfg.MemPages, cfg.MutablePages, cfg.SyncWrites, cfg.FlushPace, st.em, &st.stats)
	if err != nil {
		return nil, err
	}
	if err := st.maybeRecover(); err != nil {
		st.log.close()
		return nil, err
	}
	return st, nil
}

// Close flushes the in-memory tail and releases resources.
func (st *Store) Close() error {
	st.em.Drain()
	if err := st.log.flushAll(); err != nil {
		st.log.close()
		return err
	}
	return st.log.close()
}

// ValueSize returns the fixed value payload size.
func (st *Store) ValueSize() int { return st.cfg.ValueSize }

// StalenessBound returns the bound the store was opened with; it is fixed
// for the store's life.
func (st *Store) StalenessBound() int64 { return st.bound }

// BlockingBound reports whether reads under bound can wait on the vector
// clock, which is whether the store runs the clock at all: with the clock
// disabled (bound < 0) or fully asynchronous (BoundAsync) no read can wait,
// so no token is taken and none released, and batched reads are free to fan
// out across shards in parallel. Under a blocking bound a Get is a token
// acquisition that only the matching Put releases, and acquisitions must
// keep a global order.
func BlockingBound(bound int64) bool { return bound >= 0 && bound != BoundAsync }

// Stats returns a snapshot of operation counters.
func (st *Store) Stats() stats.Counters {
	st.sessMu.Lock()
	defer st.sessMu.Unlock()
	c := st.stats.snapshot().Add(st.closed)
	for s := range st.sessions {
		c = c.Add(s.stats.snapshot())
	}
	return c
}

// Resident reports whether every record ever written is still in memory:
// the head boundary has never left the log's first address, so no read can
// touch the file. A fresh store is resident until its first page is
// evicted; a recovered one never is (recovery leaves all it found on disk).
// The flag is monotone — once false it stays false — and costs one atomic
// load.
func (st *Store) Resident() bool { return st.log.headAddr.Load() == firstAddr }

// MemoryBytes reports the approximate in-memory footprint of the log frames.
func (st *Store) MemoryBytes() int64 {
	per := int64(st.cfg.RecordsPerPage) * int64(st.cfg.ValueSize+3*8)
	return per * int64(st.cfg.MemPages)
}

// Session is a registered participant in the store's epoch protocol. It is
// not safe for concurrent use; each goroutine needs its own session.
type Session struct {
	st      *Store
	es      *epoch.Session
	stats   Stats    // this session's operations (see Store.stats)
	scratch []byte   // one value
	rec     []byte   // one on-disk record: readDisk's read buffer
	hit     chainHit // findKey's result: one chain walk at a time
	tally   int64    // what the pass in progress has counted (see pass)

	// The one-key batch Get and Put run as.
	oneKey   [1]uint64
	oneFound [1]bool
}

// NewSession registers a session. It returns an error if MaxSessions are
// already active. A session must be Closed when done: until then the store
// holds its epoch slot and, for Stats, the session itself with its buffers.
func (st *Store) NewSession() (*Session, error) {
	es := st.em.Register()
	if es == nil {
		return nil, errors.New("faster: too many sessions")
	}
	s := &Session{
		st:      st,
		es:      es,
		scratch: make([]byte, st.cfg.ValueSize),
		rec:     make([]byte, st.log.recSize),
	}
	st.sessMu.Lock()
	st.sessions[s] = struct{}{}
	st.sessMu.Unlock()
	return s, nil
}

// Close unregisters the session, leaving its counts with the store.
func (s *Session) Close() {
	st := s.st
	st.sessMu.Lock()
	st.closed = st.closed.Add(s.stats.snapshot())
	delete(st.sessions, s)
	st.sessMu.Unlock()
	s.es.Unregister()
}

// Address regions, newest to oldest.
type region int

const (
	regionMutable region = iota
	regionFuzzy
	regionReadOnly
	regionDisk
)

func (st *Store) regionOf(addr uint64) region {
	if addr >= st.log.roAddr.Load() {
		return regionMutable
	}
	if addr >= st.log.safeRoAddr.Load() {
		return regionFuzzy
	}
	if addr >= st.log.headAddr.Load() {
		return regionReadOnly
	}
	return regionDisk
}

// memRecord locates addr's frame slot. Valid only under epoch protection
// for addresses at or above the head boundary.
func (st *Store) memRecord(addr uint64) (*frame, int) {
	p := st.log.pageOf(addr)
	f := st.log.frameFor(p)
	if f.holds.Load() != p {
		return nil, 0
	}
	return f, st.log.slotOf(addr)
}

// chainHit is the outcome of a hash-chain walk. Every session owns one
// (Session.hit): findKey fills it in place and the steps that act on the
// located version read it through a pointer, so no operation copies it.
type chainHit struct {
	entry    *atomic.Uint64
	entryVal uint64 // entry word at lookup time (CAS expectation)
	addr     uint64 // record address, InvalidAddr if key absent
	tomb     bool
	reg      region
	f        *frame // set for in-memory hits
	slot     int
	diskRec  diskRecord // set for disk hits
}

// findKey walks the hash chain for key into s.hit, which it returns. Must
// be called under protection. create controls whether a missing index entry
// is established.
func (s *Session) findKey(key uint64, create bool) (*chainHit, error) {
	st := s.st
	hit := &s.hit
	hash := util.HashKey(key)
	var entry *atomic.Uint64
	if create {
		entry = st.ix.findOrCreate(hash)
	} else {
		entry = st.ix.find(hash)
		if entry == nil {
			*hit = chainHit{}
			return hit, nil
		}
	}
	ev := entry.Load()
	*hit = chainHit{entry: entry, entryVal: ev, addr: entryAddr(ev)}
	addr := hit.addr
	for addr != InvalidAddr {
		reg := st.regionOf(addr)
		if reg == regionDisk {
			rec, err := st.log.readDisk(addr, s.rec, s.scratch)
			if err != nil {
				return nil, err
			}
			s.stats.DiskReads.Add(1)
			if rec.key == key {
				hit.addr, hit.reg, hit.diskRec = addr, regionDisk, rec
				hit.tomb = isTombstone(rec.prev)
				return hit, nil
			}
			addr = prevAddr(rec.prev)
			continue
		}
		f, slot := st.memRecord(addr)
		if f == nil {
			// Frame turned over beneath us (we raced a region change);
			// reclassify as disk on the next iteration.
			continue
		}
		if f.keys[slot] == key {
			hit.addr, hit.reg, hit.f, hit.slot = addr, reg, f, slot
			hit.tomb = isTombstone(f.prevs[slot])
			return hit, nil
		}
		addr = prevAddr(f.prevs[slot])
	}
	hit.addr = InvalidAddr
	return hit, nil
}

// ErrValueSize is returned when a caller buffer does not match ValueSize.
var ErrValueSize = errors.New("faster: buffer length must equal ValueSize")

// readLocked is the read of a mutable-region record (§III-C1): one CAS
// takes the lock and, with the clock running (blocking), a staleness token;
// the value is copied out into dst (exactly one value long) and the lock
// released. Not done, the record was locked, replaced or the CAS lost —
// re-resolve the chain — or stale: beyond the bound, wait for a releasing Put.
func readLocked(f *frame, slot int, dst []byte, blocking bool, bound int64) (done, stale bool) {
	hdr := &f.hdrs[slot]
	h := hdr.Load()
	if h&(lockedBit|replacedBit) != 0 {
		return false, false
	}
	delta := 0
	if blocking {
		if int64(Staleness(h)) > bound {
			return false, true
		}
		delta = 1
	}
	locked := withLock(h, delta)
	if !hdr.CompareAndSwap(h, locked) {
		return false, false
	}
	copy(dst, f.vals[slot*len(dst):])
	hdr.Store(releaseHeader(locked, false))
	return true, false
}

// Get reads the value for key into dst. Under a blocking bound it implements
// the paper's protocol: wait until the record's staleness counter is within
// the bound, then atomically {lock, staleness+1}, copy the value, and
// release; cold records (read-only region or disk) are first copied to the
// mutable tail with their vector clock preserved. Under a non-blocking bound
// it is plain FASTER's read: no token, and cold records read in place.
// Returns found=false, and a zeroed dst, for absent or deleted keys.
// It is GetBatchAt's one-key case.
func (s *Session) Get(key uint64, dst []byte) (bool, error) {
	s.oneKey[0] = key
	err := s.GetBatchAt(context.Background(), s.oneKey[:], firstIdx[:], dst, s.oneFound[:], nil)
	return s.oneFound[0] && err == nil, err
}

// firstIdx is the index list of a one-key batch.
var firstIdx = [1]int{0}

// pass runs step(i) for each i in idxs, in that order, as one engine pass:
// one epoch protection, and one add each to ops — the keys reached — and to
// served, what the steps counted in s.tally (reads served from memory,
// updates made in place). step reports whether its key was the common case
// — the newest version mutable, taken on the first try. After any other
// (cold, read-only, fuzzy, contended, stale, absent: a disk read, a wait or
// an append) the pass refreshes its epoch, so protection never spans more
// than one such key and a batch holds back page turnover no longer than a
// single-key call could.
func (s *Session) pass(idxs []int, ops, served *atomic.Int64, step func(i int) (plain bool, err error)) (err error) {
	n := 0
	s.es.Protect()
	for _, i := range idxs {
		n++
		var plain bool
		if plain, err = step(i); err != nil {
			break
		}
		if !plain {
			s.es.Refresh()
		}
	}
	s.es.Unprotect()
	ops.Add(int64(n))
	served.Add(s.tally)
	s.tally = 0
	return err
}

// GetBatchAt is Get for keys[i], for each i in idxs in that order, into
// vals[i×ValueSize:] and found[i] — index-addressed, so a caller that
// partitions a batch across stores hands each its positions and nothing is
// gathered or scattered. Every key is its own clocked read, as if Get had
// been called on it (duplicates included); the keys share only the pass's
// bookkeeping. On an error the positions not yet reached are untouched and
// the one that failed is undefined.
//
// A read stalled on the staleness bound (another session's token not yet
// released by its Put) gives up with ctx.Err() when ctx is cancelled or its
// deadline passes, instead of spinning until the releasing write arrives.
// The stalled key's clock is untouched — no token was acquired — so a caller
// that times out owes no balancing Put for it.
//
// With create nil an absent (or deleted) key reports found[i] false. With
// create set it is read-or-create: such a key is created in its turn, inside
// the pass — create writes its first value into the key's zeroed vals slot,
// the pass appends that value, and found[i] is true. The new record's clock
// already carries this read's token (while the clock runs), so the key ends
// exactly as a write of the value followed by a Get would leave it, with no
// gap between the two in which another session could read it first. Under
// a blocking bound the next key is therefore not read before this one holds
// its token, which is the order the caller's key order promises. If another
// session's create wins the key, the pass reads the winner's record instead.
func (s *Session) GetBatchAt(ctx context.Context, keys []uint64, idxs []int, vals []byte, found []bool, create func(key uint64, val []byte)) error {
	vs := s.st.cfg.ValueSize
	if len(vals) != len(keys)*vs || len(found) != len(keys) {
		return ErrValueSize
	}
	return s.pass(idxs, &s.stats.Gets, &s.stats.MemHits, func(i int) (plain bool, err error) {
		dst := vals[i*vs : (i+1)*vs]
		if found[i], plain, err = s.get(ctx, keys[i], dst, create); !found[i] {
			clear(dst)
		}
		return plain, err
	})
}

// get is the read of one key: resolve the chain, act on the version
// found — or, with create set, create an absent key — and retry, backing off
// and observing ctx, until the read completes. plain reports the common case
// (see pass). The caller holds protection.
func (s *Session) get(ctx context.Context, key uint64, dst []byte, create func(uint64, []byte)) (found, plain bool, err error) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := ctx.Err(); err != nil {
				return false, false, err
			}
		}
		hit, err := s.findKey(key, false)
		if err == nil && hit.entry == nil && create != nil {
			// Absent, with no index entry to append behind: establish one.
			// A read of a key that exists never pays for the second probe.
			hit, err = s.findKey(key, true)
		}
		if err != nil {
			return false, false, err
		}
		absent := hit.addr == InvalidAddr || hit.tomb
		if absent && create == nil {
			return false, false, nil
		}
		var done bool
		if absent {
			done, err = s.createOnce(key, hit, dst, create)
		} else {
			done, err = s.getOnce(key, hit, dst)
		}
		if err != nil {
			return false, false, err
		}
		if done {
			return true, attempt == 0 && !absent && hit.reg == regionMutable, nil
		}
		s.backoff(attempt)
	}
}

// createOnce appends key's first version, which create writes into dst,
// behind the absent or deleted chain head in hit. The header is a fresh
// record's (generation 0) with, while the clock runs, the creating read's
// token already taken. done=false means another session changed the chain
// first; the caller re-resolves it.
func (s *Session) createOnce(key uint64, hit *chainHit, dst []byte, create func(uint64, []byte)) (done bool, err error) {
	clear(dst)
	create(key, dst)
	var token uint64
	if s.st.blocking {
		token = 1
	}
	if done, err = s.copyToTail(key, PackHeader(false, false, 0, token), dst, hit); done {
		s.stats.RCUAppends.Add(1)
		s.tally++
	}
	return done, err
}

// getOnce attempts the Get against one located record version. done=false
// means the caller must re-resolve the chain and retry.
func (s *Session) getOnce(key uint64, hit *chainHit, dst []byte) (done bool, err error) {
	vs, blocking, bound := s.st.cfg.ValueSize, s.st.blocking, s.st.bound
	switch hit.reg {
	case regionMutable:
		done, stale := readLocked(hit.f, hit.slot, dst, blocking, bound)
		if done {
			s.tally++
		} else if stale {
			s.stats.StalenessWaits.Add(1)
		}
		return done, nil

	case regionFuzzy:
		// The read-only boundary is draining; wait for it to settle.
		s.es.Refresh()
		return false, nil

	case regionReadOnly:
		if !blocking {
			// Plain FASTER read: values are immutable here, no lock needed.
			copy(dst, hit.f.vals[hit.slot*vs:(hit.slot+1)*vs])
			s.tally++
			return true, nil
		}
		// BSC requires mutating the vector clock, which frozen pages cannot
		// do consistently: copy the record to the mutable tail (clock
		// preserved) and retry there.
		h := hit.f.hdrs[hit.slot].Load()
		if int64(Staleness(h)) > bound {
			s.stats.StalenessWaits.Add(1)
			s.es.Refresh()
			return false, nil
		}
		copy(s.scratch, hit.f.vals[hit.slot*vs:(hit.slot+1)*vs])
		_, err := s.copyToTail(key, h&^lockedBit, s.scratch, hit)
		return false, err

	case regionDisk:
		if !blocking {
			copy(dst, hit.diskRec.val)
			return true, nil
		}
		h := hit.diskRec.hdr
		if int64(Staleness(h)) > bound {
			s.stats.StalenessWaits.Add(1)
			s.es.Refresh()
			return false, nil
		}
		// diskRec.val aliases s.scratch (findKey read into it).
		_, err := s.copyToTail(key, h&^lockedBit, hit.diskRec.val, hit)
		return false, err
	}
	return false, nil
}

// Peek reads the value for key without touching the vector clock and
// without copying cold records to the tail. Used for evaluation and
// diagnostics; it never blocks on staleness.
func (s *Session) Peek(key uint64, dst []byte) (bool, error) {
	vs := s.st.cfg.ValueSize
	if len(dst) != vs {
		return false, ErrValueSize
	}
	s.es.Protect()
	defer s.es.Unprotect()
	for attempt := 0; ; attempt++ {
		hit, err := s.findKey(key, false)
		if err != nil {
			return false, err
		}
		if hit.addr == InvalidAddr || hit.tomb {
			return false, nil
		}
		switch hit.reg {
		case regionDisk:
			copy(dst, hit.diskRec.val)
			return true, nil
		case regionReadOnly:
			copy(dst, hit.f.vals[hit.slot*vs:(hit.slot+1)*vs])
			return true, nil
		default: // mutable or fuzzy: locked read for value atomicity
			if done, _ := readLocked(hit.f, hit.slot, dst, false, 0); done {
				return true, nil
			}
			s.backoff(attempt)
		}
	}
}

// Put upserts the value for key. Under a blocking bound it atomically
// {lock, staleness-1}s in the mutable region (a Put never waits on the bound —
// it only reduces staleness) and bumps the record generation on release.
// Cold or absent records get a new version appended at the tail. It is
// PutBatchAt's one-key case.
func (s *Session) Put(key uint64, val []byte) error {
	s.oneKey[0] = key
	return s.PutBatchAt(s.oneKey[:], firstIdx[:], val)
}

// PutBatchAt is Put for keys[i] = vals[i×ValueSize:], for each i in idxs in
// that order, as one pass.
func (s *Session) PutBatchAt(keys []uint64, idxs []int, vals []byte) error {
	vs := s.st.cfg.ValueSize
	if len(vals) != len(keys)*vs {
		return ErrValueSize
	}
	var val []byte
	put := func(cur []byte, _ bool) bool {
		copy(cur, val)
		return true
	}
	return s.pass(idxs, &s.stats.Puts, &s.stats.InPlaceUpdates, func(i int) (bool, error) {
		val = vals[i*vs : (i+1)*vs]
		return s.update(keys[i], put)
	})
}

// RMW applies fn to the current value (zeroed if the key is absent) as a
// single atomic read-modify-write: in place in the mutable region, by
// append elsewhere. It follows Put's staleness semantics. fn returns
// whether to store cur; a declining fn must leave cur untouched, and the
// record — value, clock, generation, or absence — stays exactly as it was.
func (s *Session) RMW(key uint64, fn func(cur []byte, exists bool) bool) error {
	return s.pass(firstIdx[:], &s.stats.RMWs, &s.stats.InPlaceUpdates, func(int) (bool, error) {
		return s.update(key, fn)
	})
}

// update is the upsert of one key: resolve the chain (establishing the index
// entry), apply fn in place or by append, and retry until it lands. plain
// reports the common case (see pass). The caller holds protection.
func (s *Session) update(key uint64, fn func(cur []byte, exists bool) bool) (plain bool, err error) {
	for attempt := 0; ; attempt++ {
		hit, err := s.findKey(key, true)
		if err != nil {
			return false, err
		}
		done, err := s.updateOnce(key, hit, fn)
		if err != nil {
			return false, err
		}
		if done {
			return attempt == 0 && hit.addr != InvalidAddr && !hit.tomb && hit.reg == regionMutable, nil
		}
		s.backoff(attempt)
	}
}

func (s *Session) updateOnce(key uint64, hit *chainHit, fn func([]byte, bool) bool) (bool, error) {
	st := s.st
	vs := st.cfg.ValueSize
	exists := hit.addr != InvalidAddr && !hit.tomb

	if exists && hit.reg == regionMutable {
		h := hit.f.hdrs[hit.slot].Load()
		if Locked(h) || Replaced(h) {
			return false, nil
		}
		delta := 0
		if st.blocking {
			delta = -1
		}
		if !hit.f.hdrs[hit.slot].CompareAndSwap(h, withLock(h, delta)) {
			return false, nil
		}
		if !fn(hit.f.vals[hit.slot*vs:(hit.slot+1)*vs], true) {
			hit.f.hdrs[hit.slot].Store(h) // declined: unlock, nothing else moved
			return true, nil
		}
		hit.f.hdrs[hit.slot].Store(releaseHeader(withLock(h, delta), true))
		s.tally++
		return true, nil
	}
	if exists && hit.reg == regionFuzzy {
		s.es.Refresh()
		return false, nil
	}

	// Append path (RCU): build the new version in scratch.
	var newHdr uint64
	if !exists {
		clear(s.scratch)
		if !fn(s.scratch, false) {
			return true, nil
		}
		newHdr = PackHeader(false, false, 0, 0)
	} else {
		var oldHdr uint64
		switch hit.reg {
		case regionReadOnly:
			oldHdr = hit.f.hdrs[hit.slot].Load()
			copy(s.scratch, hit.f.vals[hit.slot*vs:(hit.slot+1)*vs])
		case regionDisk:
			oldHdr = hit.diskRec.hdr
			// diskRec.val already aliases scratch.
		}
		if !fn(s.scratch, true) {
			return true, nil
		}
		stal := Staleness(oldHdr)
		if st.blocking && stal > 0 {
			stal--
		}
		newHdr = PackHeader(false, false, (Generation(oldHdr)+1)&genMask, stal)
	}
	ok, err := s.copyToTail(key, newHdr, s.scratch, hit)
	if err != nil {
		return false, err
	}
	if ok {
		s.stats.RCUAppends.Add(1)
		return true, nil
	}
	return false, nil
}

// Delete appends a tombstone for key. Subsequent Gets report not-found.
func (s *Session) Delete(key uint64) error {
	s.stats.Deletes.Add(1)
	s.es.Protect()
	defer s.es.Unprotect()
	for attempt := 0; ; attempt++ {
		hit, err := s.findKey(key, true)
		if err != nil {
			return err
		}
		if hit.addr == InvalidAddr || hit.tomb {
			return nil // nothing to delete
		}
		clear(s.scratch)
		ok, err := s.appendRecord(key, PackHeader(false, false, 0, 0), s.scratch, hit, true)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		s.backoff(attempt)
	}
}

// Prefetch implements the storage half of MLKV's look-ahead prefetching
// (§III-C2): if key's newest version lives on disk, copy it — vector clock
// intact — into the mutable tail so a future Get will not stall. Records
// already in memory (including the immutable region, per the paper, to
// avoid redundant page writes) are left alone. Returns true if a copy was
// made.
func (s *Session) Prefetch(key uint64) (bool, error) {
	s.es.Protect()
	defer s.es.Unprotect()
	hit, err := s.findKey(key, false)
	if err != nil {
		return false, err
	}
	if hit.addr == InvalidAddr || hit.tomb || hit.reg != regionDisk {
		return false, nil
	}
	ok, err := s.copyToTail(key, hit.diskRec.hdr&^lockedBit, hit.diskRec.val, hit)
	if err != nil {
		return false, err
	}
	if ok {
		s.stats.PrefetchCopies.Add(1)
		return true, nil
	}
	return false, nil
}

// copyToTail appends a record carrying hdr/val for key with the chain head
// captured in hit as its predecessor, then CASes the index entry. Returns
// false if the chain moved (caller retries or abandons); a non-nil error
// means the log can no longer allocate (background flush failed).
func (s *Session) copyToTail(key uint64, hdr uint64, val []byte, hit *chainHit) (bool, error) {
	return s.appendRecord(key, hdr, val, hit, false)
}

func (s *Session) appendRecord(key uint64, hdr uint64, val []byte, hit *chainHit, tomb bool) (bool, error) {
	st := s.st
	// allocate may Refresh the session; hit.entryVal remains a valid CAS
	// expectation (addresses are stable), but frame pointers in hit must
	// not be dereferenced after this point.
	addr, err := st.log.allocate(s.es)
	if err != nil {
		return false, err
	}
	f, slot := st.memRecord(addr)
	if f == nil {
		panic("faster: fresh tail record not in memory")
	}
	vs := st.cfg.ValueSize
	f.keys[slot] = key
	f.prevs[slot] = packPrev(entryAddr(hit.entryVal), tomb)
	copy(f.vals[slot*vs:(slot+1)*vs], val)
	f.hdrs[slot].Store(hdr)
	tag := entryTag(hit.entryVal)
	if tag == 0 {
		tag = tagOf(util.HashKey(key))
	}
	if hit.entry.CompareAndSwap(hit.entryVal, packEntry(tag, addr)) {
		if hit.addr != InvalidAddr && hit.reg != regionDisk {
			// Mark the superseded version so stragglers that cached its
			// address observe the bit and re-resolve. The frame pointer in
			// hit is stale after allocate (which may have refreshed our
			// epoch), so re-resolve the address; if the page was recycled
			// the old version is on disk and already shadowed.
			if of, oslot := st.memRecord(hit.addr); of != nil {
				for {
					h := of.hdrs[oslot].Load()
					if Replaced(h) || of.hdrs[oslot].CompareAndSwap(h, h|replacedBit) {
						break
					}
				}
			}
		}
		return true, nil
	}
	// Lost the race: abandon the allocated record. Nothing can reach it now,
	// but recovery re-indexes the log in address order, so a fully formed
	// loser above the winner's address would resurrect its older value on
	// reopen. Zero the slot — recover skips an all-zero record as an
	// unallocated gap. No Refresh has happened since allocate, so the page
	// cannot have frozen or flushed under us.
	f.hdrs[slot].Store(0)
	f.keys[slot] = 0
	f.prevs[slot] = 0
	clear(f.vals[slot*vs : (slot+1)*vs])
	s.stats.AbandonedAppends.Add(1)
	return false, nil
}

// backoff refreshes the session's epoch and yields, bounding live-lock in
// contended retry loops.
func (s *Session) backoff(attempt int) {
	s.es.Refresh()
	if attempt > 4 {
		runtime.Gosched()
	}
}

// TailAddr returns the next address to be allocated (diagnostics).
func (st *Store) TailAddr() uint64 { return st.log.nextAddr.Load() }
