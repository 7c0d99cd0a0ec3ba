package faster

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/epoch"
)

// logWriter is the write side of the log file. It is an interface so tests
// can inject a failing writer and exercise the flush-error path without
// touching the filesystem; production always uses the *os.File itself.
type logWriter interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
}

// firstAddr is the first record address of a fresh log (0 is InvalidAddr).
const firstAddr = 1

// maxGroupPages caps how many adjacent frozen pages one flush write may
// merge. The cap bounds the flusher's scratch buffer and keeps a single
// write from monopolizing the device for long bursts.
const maxGroupPages = 8

// hybridLog is FASTER's hybrid log: a logical address space of fixed-size
// records backed by a circular buffer of in-memory page frames and a single
// append-only file. Addresses partition into four regions:
//
//	[tail ......... roAddr)   mutable   — in-place updates allowed
//	[roAddr .. safeRoAddr)    fuzzy     — boundary is draining; ops retry
//	[safeRoAddr ..... head)   read-only — in-memory, immutable values
//	[head ............. 1]    disk      — positional reads from the file
//
// (Regions listed from the newest address down; roAddr >= safeRoAddr >=
// headAddr always holds.) Page frames recycle only after the page is flushed
// and an epoch drain guarantees no latch-free reader still holds a frame
// reference.
type hybridLog struct {
	valueSize int
	recSize   int // disk footprint per record
	rpp       int // records per page (power of two)
	pageShift uint
	pageMask  uint64
	memPages  int
	mutPages  int

	file *os.File
	w    logWriter // write seam (== file outside fault-injection tests)
	em   *epoch.Manager

	nextAddr   atomic.Uint64 // next record index to allocate
	roAddr     atomic.Uint64 // first mutable address
	safeRoAddr atomic.Uint64 // ro boundary all sessions have observed
	headAddr   atomic.Uint64 // first in-memory address

	frames []frame

	// Flush pipeline. frozenEnq tracks the highest page whose flush has been
	// enqueued; flushedPage is the contiguous flushed watermark.
	flushCh     chan int64
	enqMu       sync.Mutex
	frozenEnq   int64
	flushMu     sync.Mutex
	flushCond   *sync.Cond
	flushedPage int64
	flushErr    error
	flushDone   chan struct{}
	syncWrites  bool
	flushPace   time.Duration // minimum gap between flush writes (0 = none)

	frameMu   sync.Mutex
	frameCond *sync.Cond

	stats *Stats
}

// frame is one in-memory page. holds is the logical page number currently
// materialized: -1 while the frame awaits reset, pages are published by the
// initializing allocator after the previous occupant is flushed and drained.
type frame struct {
	holds atomic.Int64
	freed atomic.Bool // set by the epoch action that releases the old page
	hdrs  []atomic.Uint64
	keys  []uint64
	prevs []uint64
	vals  []byte
}

func newHybridLog(path string, valueSize, recsPerPage, memPages, mutPages int, syncWrites bool, flushPace time.Duration, em *epoch.Manager, stats *Stats) (*hybridLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("faster: open log: %w", err)
	}
	l := &hybridLog{
		valueSize:  valueSize,
		recSize:    diskRecSize(valueSize),
		rpp:        recsPerPage,
		memPages:   memPages,
		mutPages:   mutPages,
		file:       f,
		w:          f,
		em:         em,
		flushCh:    make(chan int64, 4*memPages),
		flushDone:  make(chan struct{}),
		syncWrites: syncWrites,
		flushPace:  flushPace,
		stats:      stats,
	}
	for s := uint(0); 1<<s < recsPerPage; s++ {
		l.pageShift = s + 1
	}
	if 1<<l.pageShift != recsPerPage {
		f.Close()
		return nil, fmt.Errorf("faster: RecordsPerPage %d is not a power of two", recsPerPage)
	}
	l.pageMask = uint64(recsPerPage - 1)
	l.frames = make([]frame, memPages)
	for i := range l.frames {
		l.frames[i].holds.Store(-1)
		l.frames[i].hdrs = make([]atomic.Uint64, recsPerPage)
		l.frames[i].keys = make([]uint64, recsPerPage)
		l.frames[i].prevs = make([]uint64, recsPerPage)
		l.frames[i].vals = make([]byte, recsPerPage*valueSize)
	}
	l.flushCond = sync.NewCond(&l.flushMu)
	l.frameCond = sync.NewCond(&l.frameMu)
	l.flushedPage = -1
	l.frozenEnq = -1

	// Address 0 is reserved as InvalidAddr; allocation starts at firstAddr
	// within page 0, which is materialized eagerly.
	l.nextAddr.Store(firstAddr)
	l.headAddr.Store(firstAddr)
	l.roAddr.Store(firstAddr)
	l.safeRoAddr.Store(firstAddr)
	l.frames[0].holds.Store(0)

	go l.flusher()
	return l, nil
}

func (l *hybridLog) pageOf(addr uint64) int64 { return int64(addr >> l.pageShift) }
func (l *hybridLog) slotOf(addr uint64) int   { return int(addr & l.pageMask) }

// frameFor returns the frame materializing page p. Callers must hold epoch
// protection and have verified the address is at or above headAddr.
func (l *hybridLog) frameFor(p int64) *frame {
	return &l.frames[int(p)%l.memPages]
}

// allocate reserves one record slot and returns its address. The calling
// session must be protected; allocate may Refresh the session while waiting
// on page turnover, so callers must not hold frame references across it.
// It fails (instead of blocking forever) once a background flush has
// failed: no further page can ever be recycled, so the append side of the
// log is permanently down and every caller must see the error.
func (l *hybridLog) allocate(s *epoch.Session) (uint64, error) {
	for {
		addr := l.nextAddr.Add(1) - 1
		p := l.pageOf(addr)
		if l.slotOf(addr) == 0 {
			if err := l.openPage(p, s); err != nil {
				return 0, err
			}
		} else if err := l.waitPageReady(p, s); err != nil {
			return 0, err
		}
		// The waits above refresh the caller's epoch, and a refresh that
		// follows the bump freezing page p stops holding that page's drain
		// back: it could be flushed before the caller has written the slot.
		// Seen still mutable after the last refresh, the slot is safe — any
		// later freeze bumps an epoch the caller has not observed. Otherwise
		// leave it an all-zero gap (recovery skips those) and take another.
		if addr >= l.roAddr.Load() {
			return addr, nil
		}
		l.stats.AbandonedAppends.Add(1)
	}
}

// openPage is run by the allocator that received the first slot of page p.
// It freezes pages that leave the mutable window, waits for the frame's
// previous occupant to be flushed and epoch-released, resets the frame, and
// publishes it.
func (l *hybridLog) openPage(p int64, s *epoch.Session) error {
	// 1. Advance the read-only boundary so the mutable window ends at p.
	if frozen := p - int64(l.mutPages); frozen >= 0 {
		newRO := uint64(frozen+1) << l.pageShift
		for {
			cur := l.roAddr.Load()
			if newRO <= cur {
				break
			}
			if l.roAddr.CompareAndSwap(cur, newRO) {
				l.em.BumpWith(func() { l.onROBoundaryDrained(newRO, frozen) })
				break
			}
		}
	}

	// 2. Recycle the frame. Its previous occupant (if any) must be flushed,
	// evicted past the head boundary, and epoch-drained.
	f := l.frameFor(p)
	victim := p - int64(l.memPages)
	if victim >= 0 {
		if err := l.waitFlushed(victim, s); err != nil {
			return err
		}

		newHead := uint64(victim+1) << l.pageShift
		for {
			cur := l.headAddr.Load()
			if newHead <= cur {
				break
			}
			if l.headAddr.CompareAndSwap(cur, newHead) {
				break
			}
		}
		l.em.BumpWith(func() { f.freed.Store(true); l.broadcastFrames() })
		l.frameMu.Lock()
		for !f.freed.Load() {
			l.frameMu.Unlock()
			s.Refresh() // our own refresh lets the drain complete
			runtime.Gosched()
			l.frameMu.Lock()
		}
		l.frameMu.Unlock()
	}

	// 3. Reset and publish. Values too: a slot nobody writes (see allocate)
	// must reach the file all zero, the only record recovery skips.
	for i := range f.hdrs {
		f.hdrs[i].Store(0)
	}
	clear(f.keys)
	clear(f.prevs)
	clear(f.vals)
	f.freed.Store(false)
	f.holds.Store(p)
	l.broadcastFrames()
	return nil
}

// onROBoundaryDrained runs once every session has observed the read-only
// boundary at newRO: it publishes the safe boundary and enqueues the newly
// frozen pages for flushing, in order and exactly once.
func (l *hybridLog) onROBoundaryDrained(newRO uint64, upTo int64) {
	for {
		cur := l.safeRoAddr.Load()
		if newRO <= cur {
			break
		}
		if l.safeRoAddr.CompareAndSwap(cur, newRO) {
			break
		}
	}
	l.enqMu.Lock()
	for q := l.frozenEnq + 1; q <= upTo; q++ {
		l.flushCh <- q
	}
	if upTo > l.frozenEnq {
		l.frozenEnq = upTo
	}
	l.enqMu.Unlock()
}

func (l *hybridLog) broadcastFrames() {
	l.frameMu.Lock()
	l.frameCond.Broadcast()
	l.frameMu.Unlock()
}

// waitPageReady blocks until page p is materialized, refreshing the
// caller's epoch so drains can proceed. If a background flush has failed,
// the allocator that should publish p may have bailed out with that error,
// so waiters must observe it too instead of spinning forever.
func (l *hybridLog) waitPageReady(p int64, s *epoch.Session) error {
	f := l.frameFor(p)
	for f.holds.Load() != p {
		l.flushMu.Lock()
		err := l.flushErr
		l.flushMu.Unlock()
		if err != nil && f.holds.Load() != p {
			return fmt.Errorf("faster: log flush failed: %w", err)
		}
		s.Refresh()
		runtime.Gosched()
	}
	return nil
}

// waitFlushed blocks until page p has been written to disk. A background
// flush failure is returned (not panicked): the caller propagates it up
// through Get/Put/RMW so the application decides what to do with a store
// whose log device died.
func (l *hybridLog) waitFlushed(p int64, s *epoch.Session) error {
	for {
		l.flushMu.Lock()
		done := l.flushedPage >= p
		err := l.flushErr
		l.flushMu.Unlock()
		if err != nil {
			return fmt.Errorf("faster: log flush failed: %w", err)
		}
		if done {
			return nil
		}
		s.Refresh()
		runtime.Gosched()
	}
}

// flusher serializes frozen pages to the log file in page order. Adjacent
// frozen pages already waiting in flushCh are merged into one contiguous
// write (group commit) — a checkpoint or eviction burst of k pages costs
// ~k/maxGroupPages writes and one sync instead of k of each — and when
// flushPace is set, consecutive writes are separated by at least that gap
// so flush I/O is smeared across time instead of monopolizing the device
// while reads queue behind it.
func (l *hybridLog) flusher() {
	defer close(l.flushDone)
	pageBytes := l.rpp * l.recSize
	buf := make([]byte, maxGroupPages*pageBytes)
	for p := range l.flushCh {
		if p < 0 { // shutdown sentinel
			return
		}
		// Group commit: greedily take pages p+1, p+2, ... that are already
		// enqueued. onROBoundaryDrained enqueues page numbers in order, so
		// buffered successors are always contiguous with p.
		n := 1
	drain:
		for n < maxGroupPages {
			select {
			case q := <-l.flushCh:
				if q < 0 {
					// Flush what we have, then honor the shutdown sentinel.
					l.writeGroup(p, n, buf[:n*pageBytes])
					return
				}
				n++
			default:
				break drain
			}
		}
		if err := l.writeGroup(p, n, buf[:n*pageBytes]); err != nil {
			l.drainUntilSentinel()
			return
		}
		if l.flushPace > 0 {
			// Inter-write yield: smear the next write out by the pace gap.
			l.stats.FlushPaceStalls.Add(1)
			time.Sleep(l.flushPace)
		}
	}
}

// writeGroup serializes pages [p, p+n) into buf and commits them with one
// positional write (and at most one sync). On error it fails the flush
// pipeline and returns the error.
func (l *hybridLog) writeGroup(p int64, n int, buf []byte) error {
	pageBytes := l.rpp * l.recSize
	for g := 0; g < n; g++ {
		f := l.frameFor(p + int64(g))
		if f.holds.Load() != p+int64(g) {
			err := fmt.Errorf("flush page %d: frame holds %d", p+int64(g), f.holds.Load())
			l.failFlush(err)
			return err
		}
		base := g * pageBytes
		for i := 0; i < l.rpp; i++ {
			off := base + i*l.recSize
			h := f.hdrs[i].Load() &^ lockedBit
			binary.LittleEndian.PutUint64(buf[off:], h)
			binary.LittleEndian.PutUint64(buf[off+8:], f.keys[i])
			binary.LittleEndian.PutUint64(buf[off+16:], f.prevs[i])
			copy(buf[off+24:off+l.recSize], f.vals[i*l.valueSize:(i+1)*l.valueSize])
		}
	}
	if _, err := l.w.WriteAt(buf, p*int64(pageBytes)); err != nil {
		err = fmt.Errorf("flush pages %d..%d: %w", p, p+int64(n)-1, err)
		l.failFlush(err)
		return err
	}
	if l.syncWrites {
		if err := l.w.Sync(); err != nil {
			err = fmt.Errorf("sync pages %d..%d: %w", p, p+int64(n)-1, err)
			l.failFlush(err)
			return err
		}
	}
	l.stats.FlushedPages.Add(int64(n))
	l.stats.BytesFlushed.Add(int64(len(buf)))
	if n > 1 {
		l.stats.GroupCommits.Add(1)
	}
	l.flushMu.Lock()
	l.flushedPage = p + int64(n) - 1
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
	return nil
}

func (l *hybridLog) failFlush(err error) {
	l.flushMu.Lock()
	if l.flushErr == nil {
		l.flushErr = err
	}
	l.flushCond.Broadcast()
	l.flushMu.Unlock()
}

// drainUntilSentinel keeps consuming (and discarding) enqueued page numbers
// after a flush failure so onROBoundaryDrained senders and close() never
// block on a dead flusher; it returns when the shutdown sentinel arrives.
func (l *hybridLog) drainUntilSentinel() {
	for p := range l.flushCh {
		if p < 0 {
			return
		}
	}
}

// diskRecord is a parsed on-disk record.
type diskRecord struct {
	hdr  uint64
	key  uint64
	prev uint64 // packed prev word (address + tombstone)
	val  []byte
}

// readDisk reads the record at addr from the log file through buf (the
// calling session's recSize-byte record buffer), copying the value into
// valBuf, which the returned record's val aliases.
func (l *hybridLog) readDisk(addr uint64, buf, valBuf []byte) (diskRecord, error) {
	if _, err := l.file.ReadAt(buf, int64(addr)*int64(l.recSize)); err != nil {
		return diskRecord{}, fmt.Errorf("faster: read record %d: %w", addr, err)
	}
	rec := diskRecord{
		hdr:  binary.LittleEndian.Uint64(buf),
		key:  binary.LittleEndian.Uint64(buf[8:]),
		prev: binary.LittleEndian.Uint64(buf[16:]),
	}
	copy(valBuf, buf[24:24+l.valueSize])
	rec.val = valBuf[:l.valueSize]
	return rec, nil
}

// flushAll freezes and flushes every allocated page up to and including the
// current tail page. Callers must guarantee no concurrent operations (it is
// used by Checkpoint and Close).
func (l *hybridLog) flushAll() error {
	tail := l.nextAddr.Load()
	if tail <= firstAddr {
		return nil
	}
	lastPage := l.pageOf(tail - 1)
	buf := make([]byte, l.rpp*l.recSize)
	// Let the background flusher finish everything already enqueued so we
	// never write a page concurrently with it.
	l.enqMu.Lock()
	enqueued := l.frozenEnq
	l.enqMu.Unlock()
	l.flushMu.Lock()
	for l.flushedPage < enqueued && l.flushErr == nil {
		l.flushMu.Unlock()
		runtime.Gosched()
		l.flushMu.Lock()
	}
	from := l.flushedPage + 1
	err := l.flushErr
	l.flushMu.Unlock()
	if err != nil {
		return err
	}
	for p := from; p <= lastPage; p++ {
		f := l.frameFor(p)
		if f.holds.Load() != p {
			continue // already evicted and flushed
		}
		for i := 0; i < l.rpp; i++ {
			off := i * l.recSize
			binary.LittleEndian.PutUint64(buf[off:], f.hdrs[i].Load()&^lockedBit)
			binary.LittleEndian.PutUint64(buf[off+8:], f.keys[i])
			binary.LittleEndian.PutUint64(buf[off+16:], f.prevs[i])
			copy(buf[off+24:off+l.recSize], f.vals[i*l.valueSize:(i+1)*l.valueSize])
		}
		if _, err := l.w.WriteAt(buf, p*int64(len(buf))); err != nil {
			return fmt.Errorf("faster: flushAll page %d: %w", p, err)
		}
	}
	return l.w.Sync()
}

// close stops the flusher and closes the file.
func (l *hybridLog) close() error {
	l.flushCh <- -1
	<-l.flushDone
	return l.file.Close()
}
