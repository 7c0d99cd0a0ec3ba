package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
)

// callTimeout bounds every storage call, so a hang becomes a failed op
// and not a hung run.
const callTimeout = 10 * time.Second

// kvSession is what the op loop drives: an mlkv.Session, or one of the
// lower rungs of the traced pass dressed up as one.
type kvSession interface {
	Get(ctx context.Context, key uint64, dst []float32) error
	GetBatch(ctx context.Context, keys []uint64, dst []float32) error
	Put(ctx context.Context, key uint64, val []float32) error
	PutBatch(ctx context.Context, keys []uint64, vals []float32) error
	RMW(ctx context.Context, key uint64, grad []float32, lr float32) error
	Lookahead(keys []uint64) error
	Close()
}

// apiSession adapts the public session (method names differ only by the
// Ctx suffix).
type apiSession struct{ s *mlkv.Session }

func (a apiSession) Get(ctx context.Context, k uint64, dst []float32) error {
	return a.s.GetCtx(ctx, k, dst)
}
func (a apiSession) GetBatch(ctx context.Context, ks []uint64, dst []float32) error {
	return a.s.GetBatchCtx(ctx, ks, dst)
}
func (a apiSession) Put(ctx context.Context, k uint64, v []float32) error {
	return a.s.PutCtx(ctx, k, v)
}
func (a apiSession) PutBatch(ctx context.Context, ks []uint64, vs []float32) error {
	return a.s.PutBatchCtx(ctx, ks, vs)
}
func (a apiSession) RMW(ctx context.Context, k uint64, g []float32, lr float32) error {
	return a.s.RMWCtx(ctx, k, g, lr)
}
func (a apiSession) Lookahead(ks []uint64) error { return a.s.Lookahead(ks) }
func (a apiSession) Close()                      { a.s.Close() }

// opLoop drives one session through its stream. Everything it touches in
// the loop is allocated here, before timing.
type opLoop struct {
	s    kvSession
	st   *stream
	dim  int
	buf  []float32 // widest batch × dim
	val  []float32
	grad []float32
	pos  int // next op of the stream; wraps
	// verify checks every 64th read's payload against its key (kv_* values
	// are f(key, version); a trainer's are not).
	verify bool

	ctx       context.Context
	cancel    context.CancelFunc
	attempted int64
	failed    int64
	firstErr  error

	start time.Time // offsets of samples and spans count from here
	ser   *series   // nil: no samples (warm-up, rung replays)
	rec   *recorder // nil: tracing off
	tag   string    // span name prefix when tracing
}

func newOpLoop(s kvSession, st *stream, dim int, verify bool) *opLoop {
	widest := 1
	for _, b := range st.batch {
		widest = max(widest, len(b))
	}
	l := &opLoop{
		s: s, st: st, dim: dim, verify: verify,
		buf:  make([]float32, widest*dim),
		val:  make([]float32, dim),
		grad: rmwGrad(dim),
	}
	l.renewDeadline()
	return l
}

// renewDeadline gives the following calls a fresh callTimeout. One
// context serves a stretch of calls, so carrying a deadline does not
// cost the timed loop an allocation per call.
func (l *opLoop) renewDeadline() {
	if l.cancel != nil {
		l.cancel()
	}
	l.ctx, l.cancel = context.WithTimeout(context.Background(), callTimeout)
}

const deadlineEvery = 1024 // calls served by one context

// do issues op i of the stream, checking every 64th read's payload.
func (l *opLoop) do(i int) {
	st := l.st
	var err error
	switch st.kind[i] {
	case opGet:
		k := st.key[i]
		if err = l.s.Get(l.ctx, k, l.val); err == nil && l.verify && l.attempted&63 == 0 && !valueBelongs(l.val, k) {
			err = fmt.Errorf("get %d: payload %v does not belong to the key", k, l.val)
		}
	case opPut:
		k := st.key[i]
		fillValue(l.val, k, uint64(l.attempted))
		err = l.s.Put(l.ctx, k, l.val)
	case opRMW:
		err = l.s.RMW(l.ctx, st.key[i], l.grad, 1)
	case opGetBatch:
		ks := st.batch[i]
		dst := l.buf[:len(ks)*l.dim]
		if err = l.s.GetBatch(l.ctx, ks, dst); err == nil && l.verify && l.attempted&63 == 0 {
			for j, k := range ks {
				if !valueBelongs(dst[j*l.dim:(j+1)*l.dim], k) {
					err = fmt.Errorf("get_batch: payload of key %d does not belong to it", k)
					break
				}
			}
		}
	case opPutBatch:
		// Trainer replay: write back what the matching GetBatch read.
		ks := st.batch[i]
		err = l.s.PutBatch(l.ctx, ks, l.buf[:len(ks)*l.dim])
	case opLookahead:
		err = l.s.Lookahead(st.batch[i])
	}
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// next issues the next op of the stream, renewing the deadline when it
// is due, and returns the op's end as an offset from l.start. With a
// series or a recorder set it times the op; warm-up sets neither.
func (l *opLoop) next() time.Duration {
	if l.attempted%deadlineEvery == 0 {
		l.renewDeadline()
	}
	i := l.pos
	if l.pos++; l.pos == l.st.len() {
		l.pos = 0
	}
	if l.ser == nil && l.rec == nil {
		l.do(i)
		return 0
	}
	t0 := time.Since(l.start)
	l.do(i)
	t1 := time.Since(l.start)
	kind := l.st.kind[i]
	if l.ser != nil {
		l.ser.add(isRead(kind), t1, t1-t0, int64(l.st.keysOf(i)))
	}
	if l.rec != nil {
		l.rec.add(l.tag, kind, i, -1, t0, t1)
	}
	return t1
}

// runOps issues the next n ops: the warm-up, or one rung's replay.
func (l *opLoop) runOps(n int) {
	for ; n > 0; n-- {
		l.next()
	}
}

// runFor issues ops until one ends d after l.start, which all sessions
// of a pass share.
func (l *opLoop) runFor(d time.Duration) {
	for l.next() < d {
	}
}

func (l *opLoop) close() {
	l.cancel()
	l.s.Close()
}

// loadRecords writes records 0..n-1 as f(key, 0) through s, in ascending
// batches.
func loadRecords(s kvSession, n, dim int) error {
	const chunk = 2048
	keys := make([]uint64, chunk)
	vals := make([]float32, chunk*dim)
	for lo := 0; lo < n; lo += chunk {
		m := min(chunk, n-lo)
		for j := 0; j < m; j++ {
			keys[j] = uint64(lo + j)
			fillValue(vals[j*dim:(j+1)*dim], keys[j], 0)
		}
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		err := s.PutBatch(ctx, keys[:m], vals[:m*dim])
		cancel()
		if err != nil {
			return fmt.Errorf("load records %d..%d: %w", lo, lo+m, err)
		}
	}
	return nil
}

// kvLoops opens one op loop per stream on the model.
func kvLoops(m *mlkv.Model, streams []*stream, dim int) ([]*opLoop, error) {
	loops := make([]*opLoop, 0, len(streams))
	for _, st := range streams {
		s, err := m.NewSession()
		if err != nil {
			for _, l := range loops {
				l.close()
			}
			return nil, err
		}
		loops = append(loops, newOpLoop(apiSession{s}, st, dim, true))
	}
	return loops, nil
}

// each runs fn on every loop concurrently and waits.
func each(loops []*opLoop, fn func(*opLoop)) {
	var wg sync.WaitGroup
	for _, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(l)
		}()
	}
	wg.Wait()
}

// setupKV loads the records and runs the warm-up ops, so lazy opens,
// pool dials and the cache fill are done before timing. It returns the
// loops positioned after the warm-up.
func setupKV(sp *spec, t *target, streams []*stream) ([]*opLoop, error) {
	loops, err := kvLoops(t.model, streams, sp.dim)
	if err != nil {
		return nil, err
	}
	if err := loadRecords(loops[0].s, sp.records, sp.dim); err != nil {
		for _, l := range loops {
			l.close()
		}
		return nil, err
	}
	each(loops, func(l *opLoop) { l.runOps(sp.warmOps) })
	return loops, nil
}
