package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hintParams are the two queues the drivers build: core.Table's (64-key
// chunks, two store sessions) and the remote driver's (one frame's worth
// of keys, one wire session).
var hintParams = []struct {
	name           string
	chunk, workers int
}{
	{"local", hintChunk, hintWorkers},
	{"remote", 4096, 1},
}

// hintRecorder hands out HintSessions that record every key they serve,
// each once gate is closed; live counts the sessions not yet closed, and
// late the sessions opened once sealed is set.
type hintRecorder struct {
	gate       chan struct{}
	opened     atomic.Int64
	live, late atomic.Int64
	sealed     atomic.Bool

	mu       sync.Mutex
	served   map[uint64]int
	maxChunk int
}

func newHintRecorder() *hintRecorder {
	return &hintRecorder{gate: make(chan struct{}), served: map[uint64]int{}}
}

func (r *hintRecorder) open() (HintSession, error) {
	r.opened.Add(1)
	r.live.Add(1)
	if r.sealed.Load() {
		r.late.Add(1)
	}
	return recordingHints{r}, nil
}

type recordingHints struct{ r *hintRecorder }

func (s recordingHints) Lookahead(keys []uint64) (int, error) {
	<-s.r.gate
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	for _, k := range keys {
		s.r.served[k]++
	}
	s.r.maxChunk = max(s.r.maxChunk, len(keys))
	return len(keys), nil
}

func (s recordingHints) Close() { s.r.live.Add(-1) }

// waitHintsIdle returns once every buffer is back on q's free list: nothing
// is queued and no worker is serving a chunk.
func waitHintsIdle(t *testing.T, q *HintQueue) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(q.free) < cap(q.free); {
		if time.Now().After(deadline) {
			t.Fatalf("hint queue still busy: %d of %d buffers free", len(q.free), cap(q.free))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLookaheadDropsWholeChunks pins the hint queue's one drop rule on both
// drivers' parameters: a hint is cut into chunks, each chunk needs a free
// buffer, and from the first chunk that finds none the rest of the hint
// drops and Dropped counts it. Every key ends up served exactly once or
// counted as dropped.
func TestLookaheadDropsWholeChunks(t *testing.T) {
	for _, p := range hintParams {
		t.Run(p.name, func(t *testing.T) {
			r := newHintRecorder()
			q := NewHintQueue(p.chunk, p.workers, r.open)
			defer q.Close()
			openGate := sync.OnceFunc(func() { close(r.gate) })
			defer openGate() // before Close: a gated worker would never stop
			next := uint64(1)
			want := map[uint64]bool{} // every key pushed: true if it must be served
			push := func(n, kept int) {
				t.Helper()
				before := q.Dropped()
				q.Push(seq(next, n))
				for i := range n {
					want[next+uint64(i)] = i < kept
				}
				next += uint64(n)
				if got := q.Dropped() - before; got != int64(n-kept) {
					t.Fatalf("%d-key hint: %d dropped, want %d", n, got, n-kept)
				}
			}

			// The workers hold what they take until the gate opens, so the
			// free list only shrinks. Partly free: two buffers left, and a
			// hint of two chunks and a bit keeps its two chunks.
			push((hintDepth-2)*p.chunk, (hintDepth-2)*p.chunk)
			push(2*p.chunk+7, 2*p.chunk)
			// Full: a hint drops whole, however short.
			push(3, 0)
			push(p.chunk+1, 0)
			// Served and dropped add up, chunk by chunk.
			openGate()
			waitHintsIdle(t, q)
			// With every buffer free again a queue-sized hint fits whole.
			push(hintDepth*p.chunk, hintDepth*p.chunk)
			waitHintsIdle(t, q)

			r.mu.Lock()
			defer r.mu.Unlock()
			dropped := int64(0)
			for k, keep := range want {
				if n := r.served[k]; keep && n != 1 || !keep && n != 0 {
					t.Fatalf("key %d served %d times, must-serve %v", k, n, keep)
				}
				if !keep {
					dropped++
				}
			}
			if len(r.served) != len(want)-int(dropped) || q.Dropped() != dropped {
				t.Fatalf("%d keys pushed: %d served, %d dropped (want %d)", len(want), len(r.served), q.Dropped(), dropped)
			}
			if r.maxChunk > p.chunk {
				t.Fatalf("a worker served %d keys at once, chunk is %d", r.maxChunk, p.chunk)
			}
			if got := r.opened.Load(); got != int64(p.workers) {
				t.Fatalf("%d worker sessions opened, want %d", got, p.workers)
			}
		})
	}
}

// TestHintQueuePushRacesClose: Pushes racing Close never block, no worker
// outlives Close, and no worker starts after it. Run it under -race.
func TestHintQueuePushRacesClose(t *testing.T) {
	for _, p := range hintParams {
		t.Run(p.name, func(t *testing.T) {
			for round := range 50 {
				r := newHintRecorder()
				close(r.gate)
				q := NewHintQueue(p.chunk, p.workers, r.open)
				start, closed, pushed := make(chan struct{}), make(chan struct{}), make(chan struct{})
				var wg sync.WaitGroup
				for g := range 4 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						hint := seq(uint64(g)<<32, 100)
						<-start
						for range 50 {
							q.Push(hint)
						}
					}()
				}
				go func() { wg.Wait(); close(pushed) }()
				go func() {
					<-start
					q.Close()
					r.sealed.Store(true)
					close(closed)
				}()
				close(start)
				for _, ch := range []chan struct{}{closed, pushed} {
					select {
					case <-ch:
					case <-time.After(10 * time.Second):
						t.Fatalf("round %d: a Push or the Close it raced blocked", round)
					}
				}
				q.Push(seq(1, 10))
				q.Close() // waits for any worker a racing Push started
				if live, late := r.live.Load(), r.late.Load(); live != 0 || late != 0 {
					t.Fatalf("round %d: %d sessions open after Close, %d opened after it", round, live, late)
				}
			}
		})
	}
}
