package core

import (
	"sync"
	"sync/atomic"
)

// hintDepth is how many chunk buffers a hint queue holds. A hint that would
// wait behind this many chunks would reach the store after the read it was
// meant to lead.
const hintDepth = 64

// HintSession is one hint-queue worker's session: Lookahead serves one
// chunk of a hint (a store session locally, a wire session remotely).
type HintSession interface {
	Lookahead(keys []uint64) (int, error)
	Close()
}

// HintQueue is the look-ahead queue behind both drivers' Lookahead
// (§III-C2, Fig. 5b): the caller's hint is copied into recycled buffers and
// served in the background by workers, each on its own session, started on
// the first hint. A buffer cycles free → work → a worker → free; both
// channels hold hintDepth, so holding a free buffer is the right to enqueue
// it (the send cannot block) and an empty free list is a full queue.
//
// One drop rule: a hint is cut into chunks of at most chunk keys, and each
// chunk needs a free buffer. From the first chunk that finds none, the rest
// of the hint drops, and Dropped counts those keys.
type HintQueue struct {
	chunk, workers int
	open           func() (HintSession, error)

	work, free chan []uint64
	stop       chan struct{}
	wg         sync.WaitGroup
	dropped    atomic.Int64

	// mu orders worker start against Close, so a hint racing Close can
	// never start a worker Close no longer sees.
	mu              sync.Mutex
	started, closed bool
}

// NewHintQueue returns a queue that serves hints in chunks of at most chunk
// keys on workers goroutines, each on the session open returns. Buffers
// grow to their chunk size on first use.
func NewHintQueue(chunk, workers int, open func() (HintSession, error)) *HintQueue {
	q := &HintQueue{
		chunk: chunk, workers: workers, open: open,
		work: make(chan []uint64, hintDepth),
		free: make(chan []uint64, hintDepth),
		stop: make(chan struct{}),
	}
	for range hintDepth {
		q.free <- nil
	}
	return q
}

// Push queues a copy of keys and returns at once: it never blocks, never
// fails and keeps no reference to keys. A hint pushed after Close is
// ignored.
func (q *HintQueue) Push(keys []uint64) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if !q.started {
		q.started = true
		q.wg.Add(q.workers)
		for range q.workers {
			go q.worker()
		}
	}
	q.mu.Unlock()
	for len(keys) > 0 {
		select {
		case buf := <-q.free:
			n := min(len(keys), q.chunk)
			q.work <- append(buf[:0], keys[:n]...)
			keys = keys[n:]
		default:
			q.dropped.Add(int64(len(keys)))
			return
		}
	}
}

// worker serves chunks on its own session until Close. Hints are
// best-effort: a failed chunk drops that chunk, not the pipeline.
func (q *HintQueue) worker() {
	defer q.wg.Done()
	s, err := q.open()
	if err != nil {
		return
	}
	defer s.Close()
	for {
		select {
		case <-q.stop:
			return
		case buf := <-q.work:
			s.Lookahead(buf) //nolint:errcheck // best-effort hint
			q.free <- buf
		}
	}
}

// Dropped is how many hinted keys the queue has dropped.
func (q *HintQueue) Dropped() int64 { return q.dropped.Load() }

// Close stops the workers and waits for them to close their sessions.
// Idempotent.
func (q *HintQueue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.stop)
	}
	q.mu.Unlock()
	q.wg.Wait()
}
