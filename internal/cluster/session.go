package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// errNoOwner reports a key that falls outside every primary's ranges — a
// malformed map, since a valid one partitions the whole ring.
var errNoOwner = errors.New("cluster: key has no owner in the current map")

// RSession is one worker's routed session: a lazy per-node client session
// behind each node the worker's keys touch. Like every kv.Session it is
// single-goroutine from the caller's side; fanOut below spawns one
// goroutine per extra node group, each owning that node's session for the
// call.
//
// Every public method is one routed call built from four pieces: do (the
// redirect / owner-retry loop), groupBy (keys → per-node groups), exchange
// (one group's gather → frame → scatter) and fanOut (the groups in
// parallel, errors ranked).
type RSession struct {
	m    *RModel
	sess map[string]*client.Session // node id → session
	rr   uint32                     // replica round-robin cursor

	// Routing scratch, reused across calls: groups keeps every slot's
	// buffers at their high-water capacity, miss lists the caller-space
	// indices the owning primaries must (re-)serve after a replica pass.
	groups []group
	miss   []int
	wg     sync.WaitGroup
}

// group is one node's share of a batch. A routed call names the frame its
// groups exchange by wire opcode: GETBATCH, PEEKBATCH, PUTBATCH, LOOKAHEAD.
type group struct {
	primary *Node           // owner of every key in the group: the grouping identity
	sess    *client.Session // on the primary, or on the replica reading for it
	replica bool
	idxs    []int // caller-space positions
	keys    []uint64
	vals    []byte
	found   []bool
	hinted  int   // records a LOOKAHEAD frame reported copied
	err     error // the exchange's outcome, read after the fan-out joins
}

// primaryOnly is the groupBy target that never admits a replica: the
// bound-0 rule (a BSP read stays on its primary), reused for writes, hints
// and authoritative re-reads.
const primaryOnly = int64(0)

// do is the one retry loop. attempt runs against the router's current map
// and names the owner it failed against ("" when any of several may have).
// A NOT_OWNER redirect adopts the attached map and retries, at most
// maxRedirects times; a transport failure refetches the map from the other
// members and backs off (Router.retryOwner), at most ownerRetryBudget
// times, after which the error becomes ErrNoLiveOwner. Advisory calls pass
// backoff=false: they follow redirects but never wait for a failover.
// Retrying a whole batch repeats groups that already succeeded — reads and
// upserts are idempotent, so that costs duplicate work, not duplicate state;
// the one frame that is not, APPLY, is never a transport failure once sent
// (see transportFailure), so it is never repeated.
func (s *RSession) do(ctx context.Context, backoff bool, attempt func(mp *Map) (ownerID string, err error)) error {
	r := s.m.r
	var redirects, ownerRetries int
	for {
		ownerID, err := attempt(r.Map())
		if err == nil {
			return nil
		}
		if r.redirected(err, &redirects) || (backoff && r.retryOwner(ctx, &ownerRetries, ownerID, err)) {
			continue
		}
		return r.finalize(err, ownerRetries)
	}
}

// node returns (attaching if needed) this session on one node.
func (s *RSession) node(ctx context.Context, n *Node) (*client.Session, error) {
	if ss, ok := s.sess[n.ID]; ok {
		return ss, nil
	}
	cm, err := s.m.model(ctx, n)
	if err != nil {
		return nil, err
	}
	ss, err := cm.NewSessionCtx(ctx)
	if err != nil {
		return nil, err
	}
	s.sess[n.ID] = ss
	return ss, nil
}

// readTarget picks where a read of p's range goes under bound: an
// admissible replica (round-robin when several) with its session, else the
// primary. Replica session-attach failures fall back to the primary here;
// a replica failing mid-read falls back in getCtx and fanOut's caller.
func (s *RSession) readTarget(ctx context.Context, mp *Map, p *Node, bound int64) (*Node, *client.Session, error) {
	if s.m.r.opts.ReadReplicas {
		reps := mp.ReplicasOf(p.ID)
		for i := 0; i < len(reps); i++ {
			rep := reps[int(s.rr)%len(reps)]
			s.rr++
			if !s.m.replicaAdmissible(ctx, bound, rep) {
				continue
			}
			if ss, err := s.node(ctx, rep); err == nil {
				return rep, ss, nil
			}
		}
	}
	ss, err := s.node(ctx, p)
	return p, ss, err
}

// groupBy partitions keys — only the positions in subset when it is
// non-nil — by owning primary into the session's group scratch, in order of
// first appearance. target is the staleness bound that picks each group's
// node once per batch (so one batch never straddles a primary and its
// replica for the same range); primaryOnly pins every group to its owner.
// Sessions attach here, serially: the session map is single-goroutine.
func (s *RSession) groupBy(ctx context.Context, mp *Map, keys []uint64, subset []int, target int64) ([]group, error) {
	n := len(keys)
	if subset != nil {
		n = len(subset)
	}
	ng := 0
scan:
	for j := 0; j < n; j++ {
		i := j
		if subset != nil {
			i = subset[j]
		}
		p := mp.Owner(keys[i])
		if p == nil {
			return nil, errNoOwner
		}
		for gi := 0; gi < ng; gi++ { // ≤ len(mp.Nodes) groups: a scan beats a map
			if g := &s.groups[gi]; g.primary == p {
				g.idxs = append(g.idxs, i)
				continue scan
			}
		}
		rn, ss, err := s.readTarget(ctx, mp, p, target)
		if err != nil {
			return nil, err
		}
		if ng == len(s.groups) {
			s.groups = append(s.groups, group{})
		}
		g := &s.groups[ng]
		ng++
		g.primary, g.sess, g.replica = p, ss, rn != p
		g.idxs = append(g.idxs[:0], i)
	}
	return s.groups[:ng], nil
}

// exchange is one group's round trip: gather its keys (and values, for a
// put) out of the caller's buffers, send one client.Session batch — a PEEK
// whenever the node is a replica, which holds no clock — and scatter the
// answer back.
func (s *RSession) exchange(ctx context.Context, g *group, op wire.Op, keys []uint64, vals []byte, found []bool) error {
	n, vs := len(g.idxs), s.m.dim*4
	g.keys, g.vals, g.found = util.Grow(g.keys, n), util.Grow(g.vals, n*vs), util.Grow(g.found, n)
	for j, i := range g.idxs {
		g.keys[j] = keys[i]
		if op == wire.OpPutBatch {
			copy(g.vals[j*vs:(j+1)*vs], vals[i*vs:(i+1)*vs])
		}
	}
	var err error
	switch {
	case op == wire.OpPutBatch:
		return g.sess.PutBatchCtx(ctx, g.keys, g.vals)
	case op == wire.OpLookahead:
		g.hinted, err = g.sess.LookaheadCtx(ctx, g.keys)
		return err
	case op == wire.OpPeekBatch || g.replica:
		err = g.sess.PeekBatchCtx(ctx, g.keys, g.vals, g.found)
	default:
		err = g.sess.GetBatchCtx(ctx, g.keys, g.vals, g.found)
	}
	if err != nil {
		return err
	}
	for j, i := range g.idxs {
		found[i] = g.found[j]
		if g.found[j] {
			copy(vals[i*vs:(i+1)*vs], g.vals[j*vs:(j+1)*vs])
		}
	}
	return nil
}

// fanOut runs every group's exchange — the first on the calling goroutine,
// each further one on its own, which owns that node's session until the
// join — and ranks the outcomes: a NOT_OWNER from any group outranks every
// other failure (adopting its map and retrying may fix them all), then the
// first primary failure. A replica that failed is not an error: its whole
// group joins s.miss, next to the keys a healthy replica did not hold, for
// the caller's primaryRefetch. ReplicaReads counts what replicas did serve.
func (s *RSession) fanOut(ctx context.Context, groups []group, op wire.Op, keys []uint64, vals []byte, found []bool) error {
	if len(groups) == 0 {
		return nil // an empty batch
	}
	for gi := 1; gi < len(groups); gi++ {
		s.wg.Add(1)
		go func(g *group) {
			defer s.wg.Done()
			g.err = s.exchange(ctx, g, op, keys, vals, found)
		}(&groups[gi])
	}
	groups[0].err = s.exchange(ctx, &groups[0], op, keys, vals, found)
	s.wg.Wait()

	s.miss = s.miss[:0]
	var first error
	for gi := range groups {
		g := &groups[gi]
		switch {
		case g.err == nil:
			if !g.replica {
				continue
			}
			served := 0
			for _, i := range g.idxs {
				if found[i] {
					served++
				} else {
					s.miss = append(s.miss, i)
				}
			}
			s.m.r.replicaReads.Add(int64(served))
		case notOwner(g.err):
			return g.err
		case g.replica:
			s.miss = append(s.miss, g.idxs...)
		case first == nil:
			first = g.err
		}
	}
	return first
}

// primaryRefetch re-serves s.miss from the owning primaries: a miss on a
// lagging replica is not authoritative, and a replica that died mid-read
// answered nothing. Serial — the fan-out has joined, so every session is
// free again, and the common case is no miss at all.
func (s *RSession) primaryRefetch(ctx context.Context, mp *Map, op wire.Op, keys []uint64, vals []byte, found []bool) error {
	if len(s.miss) == 0 {
		return nil
	}
	groups, err := s.groupBy(ctx, mp, keys, s.miss, primaryOnly)
	if err != nil {
		return err
	}
	for gi := range groups {
		if err := s.exchange(ctx, &groups[gi], op, keys, vals, found); err != nil {
			return err
		}
	}
	return nil
}

// GetCtx reads one key through the cluster: replica when the staleness
// bound admits it (a clock-free PEEK — a replica holds no clock), primary
// otherwise; a replica miss re-reads authoritatively from the primary.
func (s *RSession) GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	defer s.m.r.lat.Since(latency.OpGet, time.Now())
	return s.getCtx(ctx, key, dst, false)
}

// PeekCtx is the clock-free read, routed like GetCtx (the bound still
// gates replica use, so BSP peeks stay on the primary too).
func (s *RSession) PeekCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	defer s.m.r.lat.Since(latency.OpGet, time.Now())
	return s.getCtx(ctx, key, dst, true)
}

func (s *RSession) getCtx(ctx context.Context, key uint64, dst []byte, peek bool) (bool, error) {
	var found bool
	err := s.do(ctx, true, func(mp *Map) (string, error) {
		p := mp.Owner(key)
		if p == nil {
			return "", errNoOwner
		}
		rn, ss, err := s.readTarget(ctx, mp, p, s.m.bound)
		if err != nil {
			return p.ID, err
		}
		if rn != p {
			found, err = ss.PeekCtx(ctx, key, dst)
			if err == nil && found {
				s.m.r.replicaReads.Add(1)
				return p.ID, nil
			}
			if notOwner(err) {
				return p.ID, err
			}
			// Replica miss or failure: maybe lag, maybe a dead node — the
			// owning primary is authoritative either way.
			if ss, err = s.node(ctx, p); err != nil {
				return p.ID, err
			}
		}
		if peek {
			found, err = ss.PeekCtx(ctx, key, dst)
		} else {
			found, err = ss.GetCtx(ctx, key, dst)
		}
		return p.ID, err
	})
	if errors.Is(err, ErrNoLiveOwner) {
		return s.degradedOrFail(ctx, key, dst, err)
	}
	return found, err
}

// degradedOrFail is a read's last resort once the owner-retry budget is
// spent: a read whose staleness bound cannot block may still be served by
// an admissible replica of the dead primary — graceful degradation, a
// stale-but-bounded answer instead of an outage. Blocking bounds (and
// reads with no admissible replica) surface the typed failure err.
func (s *RSession) degradedOrFail(ctx context.Context, key uint64, dst []byte, err error) (bool, error) {
	mp, bound := s.m.r.Map(), s.m.bound
	// The budget was spent against an owner, so the key has one.
	for _, rep := range mp.ReplicasOf(mp.Owner(key).ID) {
		if !s.m.replicaAdmissible(ctx, bound, rep) {
			continue
		}
		ss, serr := s.node(ctx, rep)
		if serr != nil {
			continue
		}
		if f, perr := ss.PeekCtx(ctx, key, dst); perr == nil {
			s.m.r.replicaReads.Add(1)
			return f, nil
		}
	}
	return false, err
}

// writeOne runs one single-key write against key's owning primary, timed
// into the router's cls histogram.
func (s *RSession) writeOne(ctx context.Context, cls latency.Op, key uint64, send func(ss *client.Session) error) error {
	defer s.m.r.lat.Since(cls, time.Now())
	return s.do(ctx, true, func(mp *Map) (string, error) {
		p := mp.Owner(key)
		if p == nil {
			return "", errNoOwner
		}
		ss, err := s.node(ctx, p)
		if err != nil {
			return p.ID, err
		}
		return p.ID, send(ss)
	})
}

// PutCtx writes one key to its owning primary.
func (s *RSession) PutCtx(ctx context.Context, key uint64, val []byte) error {
	return s.writeOne(ctx, latency.OpPut, key, func(ss *client.Session) error { return ss.PutCtx(ctx, key, val) })
}

// DeleteCtx removes one key on its owning primary.
func (s *RSession) DeleteCtx(ctx context.Context, key uint64) error {
	return s.writeOne(ctx, latency.OpPut, key, func(ss *client.Session) error { return ss.DeleteCtx(ctx, key) })
}

// ApplyCtx applies val ← val − lr·grad on key's owning primary in one APPLY
// frame (see client.Session.ApplyCtx). A step is not idempotent, so do
// re-sends it only when it provably did not run: a NOT_OWNER redirect, or a
// failure to reach the owner at all. Once the frame was written a lost
// response is a *client.UnackedError, which is no transport failure to
// retry — it surfaces to the caller, who alone knows whether stepping
// twice is acceptable.
func (s *RSession) ApplyCtx(ctx context.Context, key uint64, lr float32, grad []float32) (found bool, err error) {
	err = s.writeOne(ctx, latency.OpRMW, key, func(ss *client.Session) (err error) {
		found, err = ss.ApplyCtx(ctx, key, lr, grad)
		return err
	})
	return found, err
}

// GetBatchCtx reads a batch through the cluster: keys group by read node
// (internal/kv's shard grouping, one level up) and the groups fan out in
// parallel — except under a blocking bound, where the serial gate applies:
// multi-node blocking reads go one key at a time in caller order, exactly
// like the sharded store serializes blocking batch reads, so token
// acquisition order stays deterministic.
func (s *RSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	defer s.m.r.lat.Since(latency.OpGetBatch, time.Now())
	return s.batchRead(ctx, keys, vals, found, wire.OpGetBatch)
}

// PeekBatchCtx is the clock-free batch read, routed like GetBatchCtx.
func (s *RSession) PeekBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	defer s.m.r.lat.Since(latency.OpGetBatch, time.Now())
	return s.batchRead(ctx, keys, vals, found, wire.OpPeekBatch)
}

func (s *RSession) batchRead(ctx context.Context, keys []uint64, vals []byte, found []bool, op wire.Op) error {
	return s.do(ctx, true, func(mp *Map) (string, error) {
		bound := s.m.bound
		groups, err := s.groupBy(ctx, mp, keys, nil, bound)
		if err != nil {
			return "", err
		}
		// A batch one node serves is forwarded whole — the server-side gate
		// handles blocking bounds. Across nodes the gate sits here: blocking
		// reads go key by key in caller order, each its own routed call.
		if len(groups) > 1 && faster.BlockingBound(bound) {
			vs := s.m.dim * 4
			for i, k := range keys {
				if found[i], err = s.getCtx(ctx, k, vals[i*vs:(i+1)*vs], op == wire.OpPeekBatch); err != nil {
					return "", err
				}
			}
			return "", nil
		}
		if err := s.fanOut(ctx, groups, op, keys, vals, found); err != nil {
			return "", err
		}
		return "", s.primaryRefetch(ctx, mp, op, keys, vals, found)
	})
}

// PutBatchCtx writes a batch through the cluster, grouped by owning
// primary and fanned out in parallel. Writes never see replicas.
func (s *RSession) PutBatchCtx(ctx context.Context, keys []uint64, vals []byte) error {
	defer s.m.r.lat.Since(latency.OpPutBatch, time.Now())
	return s.do(ctx, true, func(mp *Map) (string, error) {
		groups, err := s.groupBy(ctx, mp, keys, nil, primaryOnly)
		if err != nil {
			return "", err
		}
		return "", s.fanOut(ctx, groups, wire.OpPutBatch, keys, vals, nil)
	})
}

// LookaheadCtx forwards the prefetch hint to each key's owning primary and
// sums the accepted counts. A hint is advisory: it follows a redirect (so
// hints keep landing after a promotion) but a transport failure just drops
// it — no refetch, no backoff.
func (s *RSession) LookaheadCtx(ctx context.Context, keys []uint64) (int, error) {
	var total int // summed by the one attempt that succeeds
	err := s.do(ctx, false, func(mp *Map) (string, error) {
		groups, err := s.groupBy(ctx, mp, keys, nil, primaryOnly)
		if err != nil {
			return "", err
		}
		if err := s.fanOut(ctx, groups, wire.OpLookahead, keys, nil, nil); err != nil {
			return "", err
		}
		for gi := range groups {
			total += groups[gi].hinted
		}
		return "", nil
	})
	return total, err
}

// Close releases every per-node session. Idempotent.
func (s *RSession) Close() {
	for _, ss := range s.sess {
		ss.Close()
	}
	clear(s.sess)
}
