package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/stats"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// Replicator streams a primary's committed writes to its replicas,
// asynchronously: the server's write path only appends a copied record to
// the model's replay ring and returns, so replication never sits on a
// client's latency path. Each replica gets its own sender goroutine that
// pulls the ring in sequence order — sequence assignment and ring append
// happen under one lock, so a stream can never deliver a model's writes in
// an order different from their sequence numbers. A slow replica exerts no
// backpressure: its sender simply trails the ring head, and a stream
// teardown or reconnect replays from the oldest retained record (puts and
// deletes are idempotent), so transient stalls heal by replay. Records are
// truly lost only when a replica falls more than replLogCap writes behind
// the ring: the sender skips the evicted range (counted in dropped) and
// the replica, seeing the sequence gap, pins its advertised lag at head
// minus the highest contiguously applied sequence — so SSP admissibility
// holds it out of rotation for good instead of letting it serve values
// staler than the bound.
type Replicator struct {
	st *State

	mu      sync.Mutex
	streams map[string]*replStream // replica node id → sender
	models  map[string]*replModel  // model id → replay ring
	closed  bool

	dropped atomic.Int64
}

// replLogCap bounds each model's replay ring: a replica may fall this many
// writes behind and still catch up losslessly by replay. Beyond it the
// oldest records are overwritten and the replica's lag pins (counted in
// dropped).
const replLogCap = 4096

// replRedialDelay paces reconnect attempts to an unreachable replica.
const replRedialDelay = 50 * time.Millisecond

// replDialTimeout bounds each step of a stream: a dial, or one record's
// delivery (with the model's OPEN and ATTACH when it is the first).
const replDialTimeout = 5 * time.Second

// replRec is one committed write, copied into the ring at sequence-
// assignment time. Records are immutable once stored: a wrapping append
// replaces the slot with a fresh record rather than mutating the old one,
// so a sender holding a fetched record outside the lock stays safe.
type replRec struct {
	kind byte
	keys []uint64
	vals []byte
}

// replModel is one model's replication log: a monotone sequence head plus
// a ring of the last replLogCap records. Sequence seq lives at slot
// (seq-1)%replLogCap while seq > head−replLogCap.
type replModel struct {
	dim   int
	bound int64 // the bound the primary's model runs; the replica opens under it

	mu   sync.Mutex
	head uint64
	recs [replLogCap]replRec
}

// append assigns the next sequence number to one committed write and logs
// it. Assignment and placement share the mutex, so ring order is sequence
// order even under concurrent writers.
func (rm *replModel) append(kind byte, keys []uint64, vals []byte) {
	rm.mu.Lock()
	rm.head++
	rm.recs[(rm.head-1)%replLogCap] = replRec{kind: kind, keys: keys, vals: vals}
	rm.mu.Unlock()
}

// fetch returns the record at seq — clamped up to the oldest retained
// sequence when seq has been evicted — plus the sequence actually returned
// and the current head. ok is false when seq is past the head (stream
// drained).
func (rm *replModel) fetch(seq uint64) (rec replRec, at, head uint64, ok bool) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if seq > rm.head {
		return replRec{}, seq, rm.head, false
	}
	if oldest := rm.oldest(); seq < oldest {
		seq = oldest
	}
	return rm.recs[(seq-1)%replLogCap], seq, rm.head, true
}

// oldest returns the lowest sequence the ring still holds (callers hold
// rm.mu).
func (rm *replModel) oldest() uint64 {
	if rm.head > replLogCap {
		return rm.head - replLogCap + 1
	}
	return 1
}

// replStream is one replica's sender: a wake signal plus the stop/done
// pair. stop cancels ctx, which also ends a dial or round trip in flight.
// The per-model cursors live in the run goroutine — senders pull from the
// model rings, so there is no queue to overflow or reorder.
type replStream struct {
	addr string
	wake chan struct{} // cap 1: one pending signal survives any append burst
	ctx  context.Context
	stop context.CancelFunc
	done chan struct{}
}

func newReplicator(st *State) *Replicator {
	return &Replicator{
		st:      st,
		streams: map[string]*replStream{},
		models:  map[string]*replModel{},
	}
}

// refresh reconciles the stream set with the current map: a stream per
// replica of this node, none for anyone else. A re-created stream replays
// from the ring, so teardown loses nothing the ring still holds.
func (r *Replicator) refresh() {
	m := r.st.Map()
	want := map[string]string{} // replica id → addr
	if self := m.Node(r.st.Self()); self != nil && self.Role == RolePrimary {
		for _, rep := range m.ReplicasOf(self.ID) {
			want[rep.ID] = rep.Addr
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	for id, s := range r.streams {
		if addr, ok := want[id]; !ok || addr != s.addr {
			s.stop()
			delete(r.streams, id)
		}
	}
	for id, addr := range want {
		if _, ok := r.streams[id]; ok {
			continue
		}
		s := &replStream{addr: addr, wake: make(chan struct{}, 1), done: make(chan struct{})}
		s.ctx, s.stop = context.WithCancel(context.Background())
		r.streams[id] = s
		go r.run(s)
	}
}

// replicate copies one committed write into the model's ring and wakes
// every sender.
func (r *Replicator) replicate(model string, dim int, bound int64, kind byte, keys []uint64, vals []byte) {
	r.mu.Lock()
	if r.closed || len(r.streams) == 0 {
		r.mu.Unlock()
		return
	}
	rm := r.models[model]
	if rm == nil {
		rm = &replModel{dim: dim, bound: bound}
		r.models[model] = rm
	}
	r.mu.Unlock()

	k := append([]uint64(nil), keys...)
	var v []byte
	if kind == wire.ReplPut {
		v = append([]byte(nil), vals...)
	}
	rm.append(kind, k, v)

	// Snapshot the streams after the append, so a sender created in
	// between either sees the record in its startup sweep or gets this
	// wake.
	r.mu.Lock()
	targets := make([]*replStream, 0, len(r.streams))
	for _, s := range r.streams {
		targets = append(targets, s)
	}
	r.mu.Unlock()
	for _, s := range targets {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// run is one replica's sender loop: sweep every model's backlog in
// sequence order, then sleep until the next append — or pace a redial when
// transport trouble left records pending.
func (r *Replicator) run(s *replStream) {
	defer close(s.done)
	sn := &sender{r: r, s: s, cursor: map[string]uint64{}}
	defer sn.reset()
	for {
		drained := sn.sweep()
		var retry <-chan time.Time
		if !drained {
			retry = time.After(replRedialDelay)
		}
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
		case <-retry:
		}
	}
}

// sender is the per-stream state its run goroutine owns: a one-connection
// pool onto the replica, a session per model attached there, and each
// model's next sequence to send.
type sender struct {
	r      *Replicator
	s      *replStream
	c      *client.Client             // nil until dialed, and after a reset
	sess   map[string]*client.Session // model id → session on c
	cursor map[string]uint64
}

// reset drops the pool and with it every session: the next record dials
// afresh and re-OPENs (client.Session.ReplWriteCtx says why a session is
// never healed).
func (sn *sender) reset() {
	if sn.c != nil {
		sn.c.Close()
		sn.c = nil
	}
	sn.sess = nil
}

// sweep pushes every model's backlog to the replica. It returns false when
// a dial or transport failure interrupted it with records still pending,
// true when every model is drained to its head.
func (sn *sender) sweep() bool {
	sn.r.mu.Lock()
	models := make(map[string]*replModel, len(sn.r.models))
	for id, rm := range sn.r.models {
		models[id] = rm
	}
	sn.r.mu.Unlock()
	drained := true
	for id, rm := range models {
		if !sn.sweepModel(id, rm) {
			drained = false
		}
	}
	return drained
}

// sweepModel drains one model's ring from this stream's cursor to the
// head. An application-level refusal (a *client.ServerError) skips one
// record (counted) — the replica sees the sequence gap and keeps its lag
// pinned, and retrying a frame the replica rejects would wedge the stream
// forever. Any other failure resets the pool and leaves the cursor in
// place, so the paced retry resumes exactly where it stopped.
func (sn *sender) sweepModel(id string, rm *replModel) (ok bool) {
	next := sn.cursor[id]
	if next == 0 {
		// First sight of this model: replay from the oldest retained
		// record. Replayed writes are idempotent and the replica's
		// contiguity cursor absorbs duplicates.
		next = 1
	}
	defer func() { sn.cursor[id] = next }()
	for sn.s.ctx.Err() == nil {
		rec, seq, head, more := rm.fetch(next)
		if !more {
			return true
		}
		if seq > next {
			// Ring eviction: records [next, seq) are gone for good. Count
			// them and move on — the replica will see the sequence gap and
			// keep advertising the full lag back to the loss, staying out
			// of SSP rotation.
			sn.r.dropped.Add(int64(seq - next))
			next = seq
		}
		if sn.c == nil {
			ctx, cancel := context.WithTimeout(sn.s.ctx, replDialTimeout)
			c, err := client.Dial(ctx, sn.s.addr, client.Options{Conns: 1, DialTimeout: replDialTimeout})
			cancel()
			if err != nil {
				return false
			}
			sn.c, sn.sess = c, map[string]*client.Session{}
		}
		if err := sn.send(id, rm, seq, head, rec); err != nil {
			var refused *client.ServerError
			if !errors.As(err, &refused) {
				sn.reset()
				return false
			}
			sn.r.dropped.Add(1)
		}
		next = seq + 1
	}
	return true
}

// send delivers one record within one replDialTimeout. A model's first
// record on this pool opens and attaches it on the replica (handles are
// per-server, not cluster-wide) under the primary's bound, not an unset
// one: the bound is fixed while a model is open, so a replica that first
// opened it under its own default would, once promoted, refuse the
// router's OPEN with the model's real bound.
func (sn *sender) send(id string, rm *replModel, seq, head uint64, rec replRec) error {
	ctx, cancel := context.WithTimeout(sn.s.ctx, replDialTimeout)
	defer cancel()
	s := sn.sess[id]
	if s == nil {
		m, err := sn.c.OpenModel(ctx, client.OpenSpec{ID: id, Dim: rm.dim, Bound: rm.bound})
		if err != nil {
			return err
		}
		if s, err = m.NewSessionCtx(ctx); err != nil {
			return err
		}
		// After a redial this ATTACH may have reached a restarted replica,
		// where the old handle names nothing or another model.
		var st stats.Counters
		if sn.c.AddCounters(&st); st.DialRetries != 0 {
			return errors.New("cluster: replica connection replaced during open")
		}
		sn.sess[id] = s
	}
	return s.ReplWriteCtx(ctx, seq, head, rec.kind, rec.keys, rec.vals)
}

// close stops every stream and waits for the senders to exit.
func (r *Replicator) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	streams := make([]*replStream, 0, len(r.streams))
	for _, s := range r.streams {
		streams = append(streams, s)
	}
	r.streams = map[string]*replStream{}
	r.mu.Unlock()
	for _, s := range streams {
		s.stop()
	}
	for _, s := range streams {
		<-s.done
	}
}
