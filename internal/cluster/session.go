package cluster

import (
	"context"
	"errors"
	"sync"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// errNoOwner reports a key that falls outside every primary's ranges — a
// malformed map, since a valid one partitions the whole ring.
var errNoOwner = errors.New("cluster: key has no owner in the current map")

// RSession is one worker's routed session: a lazy per-node client session
// behind each node the worker's keys touch. It is single-goroutine from the
// caller's side; fanOut below spawns one goroutine per extra node group,
// each owning that node's session for the call.
//
// Every public method is one routed call built from four pieces: do (the
// redirect / owner-retry loop), groupBy (keys → per-node groups), exchange
// (one group's gather → frame → scatter) and fanOut (the groups in
// parallel, errors ranked). There is no single-key read or put: a caller's
// single key is a batch of one. Only DeleteCtx and ApplyCtx, which have no
// batch frame, send a single-key frame (writeOne).
type RSession struct {
	m    *RModel
	sess map[string]*client.Session // node id → session
	rr   uint32                     // replica round-robin cursor

	// Routing scratch, reused across calls: groups keeps every slot's
	// buffers at their high-water capacity, and miss lists the
	// caller-space indices the owning primaries must (re-)serve after a
	// replica pass.
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
// bound-0 rule (a BSP read stays on its primary), reused for writes, hints,
// authoritative re-reads and reads while the router does not read replicas.
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
// primary. Replica session-attach failures fall back to the primary here; a
// replica failing mid-read falls back in primaryRefetch (see read).
func (s *RSession) readTarget(ctx context.Context, mp *Map, p *Node, bound int64) (*Node, *client.Session, error) {
	if bound != primaryOnly {
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
// put) out of the caller's buffers, send one client.Session batch — a
// PEEKBATCH whenever the node is a replica, which holds no clock — and
// scatter the answer back.
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
// first primary failure, named by its owner for do. A replica that failed
// is not an error: its whole group joins s.miss, next to the keys a healthy
// replica did not hold, for read to re-serve. ReplicaReads counts what
// replicas did serve.
func (s *RSession) fanOut(ctx context.Context, groups []group, op wire.Op, keys []uint64, vals []byte, found []bool) (string, error) {
	if len(groups) == 0 {
		return "", nil // an empty batch
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
	var first *group
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
			return "", g.err
		case g.replica:
			s.miss = append(s.miss, g.idxs...)
		case first == nil:
			first = g
		}
	}
	if first == nil {
		return "", nil
	}
	return first.primary.ID, first.err
}

// primaryRefetch re-serves s.miss from the owning primaries: a miss on a
// lagging replica is not authoritative, and a replica that died mid-read
// answered nothing. Serial — the fan-out has joined, so every session is
// free again, and the common case is no miss at all.
func (s *RSession) primaryRefetch(ctx context.Context, mp *Map, op wire.Op, keys []uint64, vals []byte, found []bool) (string, error) {
	if len(s.miss) == 0 {
		return "", nil
	}
	groups, err := s.groupBy(ctx, mp, keys, s.miss, primaryOnly)
	if err != nil {
		return "", err
	}
	for gi := range groups {
		if err := s.exchange(ctx, &groups[gi], op, keys, vals, found); err != nil {
			return groups[gi].primary.ID, err
		}
	}
	return "", nil
}

// read is the one routed read behind GetBatchCtx and PeekBatchCtx (op
// GETBATCH or PEEKBATCH): one do loop of
// readRuns, with replicas serving what the bound admits when the router
// reads them. Once the loop gives up with ErrNoLiveOwner, a bound that may
// read a replica at all (any but BSP) gets one degraded pass: admissible
// replicas serve their primaries' keys whether or not the router reads
// replicas — a stale-but-bounded answer instead of an outage. A replica
// that fails or misses there fails the read with the loop's error: a
// replica miss is not authoritative, and the primary that is has gone.
func (s *RSession) read(ctx context.Context, op wire.Op, keys []uint64, vals []byte, found []bool) error {
	err := s.do(ctx, true, func(mp *Map) (string, error) {
		return s.readRuns(ctx, mp, op, keys, vals, found, false)
	})
	if errors.Is(err, ErrNoLiveOwner) && s.m.bound != primaryOnly {
		if _, derr := s.readRuns(ctx, s.m.r.Map(), op, keys, vals, found, true); derr == nil {
			return nil
		}
	}
	return err
}

// readRuns is one attempt of read against mp. Keys group by read node
// (internal/kv's shard grouping, one level up) and the groups fan out in
// parallel — except under a blocking bound, where the serial gate applies:
// the batch is served as runs of consecutive same-owner keys in caller
// order, each its own fan-out, exactly as kv's inOrder runs shards, so
// token acquisition order stays deterministic. A batch one owner serves is
// one run, forwarded whole; the server's own gate orders it. Keys a replica
// did not serve are re-read from their primaries, except in the degraded
// pass, where they fail the attempt.
func (s *RSession) readRuns(ctx context.Context, mp *Map, op wire.Op, keys []uint64, vals []byte, found []bool, degraded bool) (string, error) {
	target, vs := primaryOnly, s.m.dim*4
	if degraded || s.m.r.opts.ReadReplicas {
		target = s.m.bound
	}
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		hi = len(keys)
		if faster.BlockingBound(s.m.bound) {
			p := mp.Owner(keys[lo])
			for hi = lo + 1; hi < len(keys) && mp.Owner(keys[hi]) == p; hi++ {
			}
		}
		k, v, f := keys[lo:hi], vals[lo*vs:hi*vs], found[lo:hi]
		groups, err := s.groupBy(ctx, mp, k, nil, target)
		if err != nil {
			return "", err
		}
		if id, err := s.fanOut(ctx, groups, op, k, v, f); err != nil {
			return id, err
		}
		if degraded && len(s.miss) > 0 {
			return "", ErrNoLiveOwner // read keeps the loop's own error
		}
		if id, err := s.primaryRefetch(ctx, mp, op, k, v, f); err != nil {
			return id, err
		}
	}
	return "", nil
}

// GetBatchCtx reads a batch through the cluster (see read): a replica when
// the staleness bound admits it (a clock-free PEEKBATCH — a replica holds
// no clock), the owning primary otherwise.
func (s *RSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return s.read(ctx, wire.OpGetBatch, keys, vals, found)
}

// PeekBatchCtx is the clock-free batch read, routed like GetBatchCtx (the
// bound still gates replica use, so BSP peeks stay on the primary too).
func (s *RSession) PeekBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return s.read(ctx, wire.OpPeekBatch, keys, vals, found)
}

// writeOne runs one single-key write against key's owning primary: the
// frames with no batch form, DELETE and APPLY.
func (s *RSession) writeOne(ctx context.Context, key uint64, send func(ss *client.Session) error) error {
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

// DeleteCtx removes one key on its owning primary.
func (s *RSession) DeleteCtx(ctx context.Context, key uint64) error {
	return s.writeOne(ctx, key, func(ss *client.Session) error { return ss.DeleteCtx(ctx, key) })
}

// ApplyCtx applies val ← val − lr·grad on key's owning primary in one APPLY
// frame (see client.Session.ApplyCtx). A step is not idempotent, so do
// re-sends it only when it provably did not run: a NOT_OWNER redirect, or a
// failure to reach the owner at all. Once the frame was written a lost
// response is a *client.UnackedError, which is no transport failure to
// retry — it surfaces to the caller, who alone knows whether stepping
// twice is acceptable.
func (s *RSession) ApplyCtx(ctx context.Context, key uint64, lr float32, grad []float32) (found bool, err error) {
	err = s.writeOne(ctx, key, func(ss *client.Session) (err error) {
		found, err = ss.ApplyCtx(ctx, key, lr, grad)
		return err
	})
	return found, err
}

// PutBatchCtx writes a batch through the cluster, grouped by owning
// primary and fanned out in parallel. Writes never see replicas.
func (s *RSession) PutBatchCtx(ctx context.Context, keys []uint64, vals []byte) error {
	return s.do(ctx, true, func(mp *Map) (string, error) {
		groups, err := s.groupBy(ctx, mp, keys, nil, primaryOnly)
		if err != nil {
			return "", err
		}
		return s.fanOut(ctx, groups, wire.OpPutBatch, keys, vals, nil)
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
		if id, err := s.fanOut(ctx, groups, wire.OpLookahead, keys, nil, nil); err != nil {
			return id, err
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
