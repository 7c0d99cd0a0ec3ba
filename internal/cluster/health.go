package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/client"
	"github.com/llm-db/mlkv-go/internal/wire"
)

// Failure detection and replica promotion — the part of the cluster that
// turns a dead machine into a latency blip instead of an outage.
//
// Every node runs a detector: one probe goroutine per peer sends a
// CLUSTERPING each Interval carrying a pingInfo (map epoch, replication
// watermark, and the peers the sender currently suspects); the reply
// carries the receiver's. Suspicion gossip therefore rides the heartbeats
// themselves — no extra rounds — and an *incoming* ping counts as proof
// of life, so a one-way partition (A cannot reach B, B can reach A) never
// builds mutual suspicion.
//
// The state machine per peer is alive → suspect → confirmed-dead:
//
//	alive ──(no ack for SuspectAfter)──▶ suspect
//	suspect ──(self + enough peers suspect: quorum)──▶ confirmed-dead
//	suspect/confirmed ──(any ack)──▶ alive
//	alive ──(CLUSTERLEAVE)──▶ confirmed-dead   (graceful: no timeout)
//
// Quorum is floor(N/2)+1 where N is the membership excluding the target,
// counting this node's own suspicion as one vote — so in a 3-node cluster
// a death needs both survivors to agree, and a node that only *I* cannot
// reach keeps serving. (A 2-node cluster degenerates to quorum 1: the
// lone survivor's own view decides, there is nobody to disagree.)
//
// When a confirmed-dead node is a primary, its most-caught-up live
// replica promotes itself: highest replication watermark wins, ties break
// to the lowest node ID, currently-suspect replicas do not count. The
// promotion is Map.Promote (ranges move wholesale, dead primary kept
// demoted), installed through the ordinary Adopt path — epoch bump, map
// persisted, replication streams refreshed — and gossiped to every live
// peer; clients learn it from the next NOT_OWNER redirect. Epoch mismatch
// seen in any ping triggers a PushMap anti-entropy exchange, which is
// also how a rejoining stale primary discovers its own demotion.

// Detector defaults, used when HealthConfig leaves fields zero.
const (
	defaultPingInterval = 500 * time.Millisecond
	defaultSuspectAfter = 2 * time.Second
)

// HealthConfig tunes a node's failure detector.
type HealthConfig struct {
	// Interval between heartbeats to each peer (default 500ms).
	Interval time.Duration
	// SuspectAfter is how long a peer may go unheard before this node
	// suspects it (default 2s; must comfortably exceed Interval).
	SuspectAfter time.Duration
	// Watermark reports this node's replication watermark — the
	// contiguously applied write sequence — gossiped in pings so peers can
	// pick the most-caught-up replica at promotion time. Nil reads as 0.
	Watermark func() uint64
	// Logf reports detector transitions (suspicion, confirmation,
	// promotion); nil discards them.
	Logf func(format string, args ...any)
}

// pingInfo is the CLUSTERPING payload, identical in both directions.
type pingInfo struct {
	From      string   // sender's node id
	Epoch     uint64   // sender's map epoch (anti-entropy trigger)
	Watermark uint64   // sender's replication watermark
	Suspects  []string // peers the sender currently suspects
}

// encodePingInfo serializes p:
//
//	uint64 epoch | uint64 watermark | uint16 from len | from |
//	uint16 suspect count | count × (uint16 len | id)
func encodePingInfo(p pingInfo) []byte {
	n := 8 + 8 + 2 + len(p.From) + 2
	for _, s := range p.Suspects {
		n += 2 + len(s)
	}
	out := make([]byte, 0, n)
	out = binary.LittleEndian.AppendUint64(out, p.Epoch)
	out = binary.LittleEndian.AppendUint64(out, p.Watermark)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.From)))
	out = append(out, p.From...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Suspects)))
	for _, s := range p.Suspects {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
		out = append(out, s...)
	}
	return out
}

// decodePingInfo parses a CLUSTERPING payload, applying the same topology
// caps as the map codec so a hostile frame cannot force a giant allocation.
func decodePingInfo(p []byte) (pingInfo, error) {
	if len(p) < 18 {
		return pingInfo{}, fmt.Errorf("%w: ping wants >= 18 bytes, got %d", wire.ErrShortPayload, len(p))
	}
	info := pingInfo{
		Epoch:     binary.LittleEndian.Uint64(p),
		Watermark: binary.LittleEndian.Uint64(p[8:]),
	}
	rest := p[16:]
	var err error
	if info.From, rest, err = decodeString(rest, "ping sender", MaxNodeID); err != nil {
		return pingInfo{}, err
	}
	if info.From == "" {
		return pingInfo{}, errors.New("cluster: ping names no sender")
	}
	if len(rest) < 2 {
		return pingInfo{}, fmt.Errorf("%w: ping suspect count wants 2 bytes, got %d", wire.ErrShortPayload, len(rest))
	}
	count := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if count > MaxNodes {
		return pingInfo{}, fmt.Errorf("cluster: ping with %d suspects exceeds limit %d", count, MaxNodes)
	}
	for i := 0; i < count; i++ {
		var s string
		if s, rest, err = decodeString(rest, "ping suspect", MaxNodeID); err != nil {
			return pingInfo{}, err
		}
		info.Suspects = append(info.Suspects, s)
	}
	if len(rest) != 0 {
		return pingInfo{}, fmt.Errorf("%w: ping carries %d trailing bytes", wire.ErrShortPayload, len(rest))
	}
	return info, nil
}

// encodeLeave serializes a CLUSTERLEAVE payload: the departing node's id.
func encodeLeave(id string) []byte {
	out := make([]byte, 0, 2+len(id))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(id)))
	return append(out, id...)
}

// decodeLeave parses a CLUSTERLEAVE payload.
func decodeLeave(p []byte) (string, error) {
	id, rest, err := decodeString(p, "leave", MaxNodeID)
	if err != nil {
		return "", err
	}
	if id == "" {
		return "", errors.New("cluster: leave names no node")
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("%w: leave carries %d trailing bytes", wire.ErrShortPayload, len(rest))
	}
	return id, nil
}

// peerHealth is everything the detector knows about one peer.
type peerHealth struct {
	lastAck   time.Time       // last proof of life (ack or incoming ping)
	epoch     uint64          // peer's last gossiped map epoch
	watermark uint64          // peer's last gossiped replication watermark
	suspects  map[string]bool // who the peer last said it suspects
	left      bool            // peer announced a graceful departure
	dead      bool            // confirmed dead and acted upon
}

// probe is one peer's heartbeat goroutine. stop cancels ctx, which also
// ends a dial or PING in flight.
type probe struct {
	id, addr string
	ctx      context.Context
	stop     context.CancelFunc
	done     chan struct{}
}

// detector is a node's failure detector: probes, peer knowledge, and the
// evaluation loop that turns suspicion into confirmed deaths and deaths
// into promotions.
type detector struct {
	st  *State
	cfg HealthConfig

	mu     sync.Mutex
	probes map[string]*probe
	peers  map[string]*peerHealth
	closed bool

	kickCh chan struct{} // nudges the evaluator (leave frames, tests)
	stopCh chan struct{}
	doneCh chan struct{}

	confirmedDeaths atomic.Int64
	promotions      atomic.Int64
}

func newDetector(st *State, cfg HealthConfig) *detector {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultPingInterval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = defaultSuspectAfter
	}
	if cfg.SuspectAfter < 2*cfg.Interval {
		cfg.SuspectAfter = 2 * cfg.Interval
	}
	return &detector{
		st:     st,
		cfg:    cfg,
		probes: map[string]*probe{},
		peers:  map[string]*peerHealth{},
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
}

func (d *detector) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

func (d *detector) watermark() uint64 {
	if d.cfg.Watermark != nil {
		return d.cfg.Watermark()
	}
	return 0
}

// pingTimeout bounds one heartbeat round trip: half the suspicion window
// (so one stuck ping cannot eat the whole budget), capped at a second.
func (d *detector) pingTimeout() time.Duration {
	t := d.cfg.SuspectAfter / 2
	if t > time.Second {
		t = time.Second
	}
	if t <= 0 {
		t = time.Second
	}
	return t
}

func (d *detector) start() {
	go d.evalLoop()
	d.refresh()
}

// refresh reconciles probe goroutines with the current map — the same
// shape as Replicator.refresh: stop probes for departed peers, start
// probes for new ones, restart probes whose peer changed address.
func (d *detector) refresh() {
	m := d.st.Map()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	want := map[string]string{}
	for i := range m.Nodes {
		if m.Nodes[i].ID != d.st.self {
			want[m.Nodes[i].ID] = m.Nodes[i].Addr
		}
	}
	var stopped []*probe
	for id, p := range d.probes {
		if addr, ok := want[id]; !ok || addr != p.addr {
			stopped = append(stopped, p)
			delete(d.probes, id)
		}
	}
	for id, addr := range want {
		if _, ok := d.probes[id]; ok {
			continue
		}
		p := &probe{id: id, addr: addr, done: make(chan struct{})}
		p.ctx, p.stop = context.WithCancel(context.Background())
		d.probes[id] = p
		if d.peers[id] == nil {
			// The grace period: a just-learned peer starts fully alive, so
			// SuspectAfter of genuine silence must pass before suspicion.
			d.peers[id] = &peerHealth{lastAck: time.Now()}
		}
		go d.probeLoop(p)
	}
	d.mu.Unlock()
	for _, p := range stopped {
		p.stop()
		<-p.done
	}
}

func (d *detector) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	probes := make([]*probe, 0, len(d.probes))
	for _, p := range d.probes {
		probes = append(probes, p)
	}
	d.probes = map[string]*probe{}
	d.mu.Unlock()
	close(d.stopCh)
	for _, p := range probes {
		p.stop()
		<-p.done
	}
	<-d.doneCh
}

// probeLoop heartbeats one peer until stopped, holding one pool that is
// dropped and redialed on any transport error.
func (d *detector) probeLoop(p *probe) {
	defer close(p.done)
	var c *client.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
		}
		c = d.pingOnce(p, c)
	}
}

// pingOnce sends one heartbeat to p, returning the (possibly fresh,
// possibly dropped) pool. The dial and the PING share one pingTimeout.
func (d *detector) pingOnce(p *probe, c *client.Client) *client.Client {
	timeout := d.pingTimeout()
	ctx, cancel := context.WithTimeout(p.ctx, timeout)
	defer cancel()
	if c == nil {
		var err error
		if c, err = client.Dial(ctx, p.addr, client.Options{Conns: 1, DialTimeout: timeout}); err != nil {
			return nil // unreachable; suspicion accrues from silence
		}
	}
	payload, err := c.Call(ctx, wire.OpClusterPing, encodePingInfo(d.selfInfo()))
	if err != nil {
		var refused *client.ServerError
		if errors.As(err, &refused) {
			// The peer answered — it is alive — it just runs no detector
			// (older build, or health disabled). Count the ack, learn nothing.
			d.recordAck(p.id, nil)
			return c
		}
		c.Close()
		return nil
	}
	info, err := decodePingInfo(payload)
	if err != nil {
		c.Close()
		return nil
	}
	d.recordAck(p.id, &info)
	// Anti-entropy: any epoch disagreement triggers a full map exchange.
	// This is how promotion gossip reaches a partitioned-then-healed node
	// and how a rejoining stale primary learns it was demoted.
	if cur := d.st.Map(); info.Epoch != cur.Epoch {
		if got, err := PushMap(p.addr, cur, timeout); err == nil {
			d.st.Adopt(got)
		}
	}
	return c
}

// selfInfo builds this node's half of a ping exchange.
func (d *detector) selfInfo() pingInfo {
	return pingInfo{
		From:      d.st.self,
		Epoch:     d.st.Map().Epoch,
		Watermark: d.watermark(),
		Suspects:  d.currentSuspects(),
	}
}

// currentSuspects lists the peers this node cannot currently vouch for.
func (d *detector) currentSuspects() []string {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for id, ph := range d.peers {
		if ph.left || now.Sub(ph.lastAck) > d.cfg.SuspectAfter {
			out = append(out, id)
		}
	}
	return out
}

// recordAck marks a peer alive (a ping ack, or an incoming ping — both
// prove life) and absorbs its gossiped state. A peer heard from again
// after confirmation or a leave is back: tombstones clear.
func (d *detector) recordAck(id string, info *pingInfo) {
	d.mu.Lock()
	ph := d.peers[id]
	if ph == nil {
		ph = &peerHealth{}
		d.peers[id] = ph
	}
	wasDead := ph.dead
	ph.lastAck = time.Now()
	ph.left = false
	ph.dead = false
	if info != nil {
		ph.epoch = info.Epoch
		ph.watermark = info.Watermark
		ph.suspects = make(map[string]bool, len(info.Suspects))
		for _, s := range info.Suspects {
			ph.suspects[s] = true
		}
	}
	d.mu.Unlock()
	if wasDead {
		d.logf("cluster: node %s is back", id)
	}
}

// handlePing services an incoming CLUSTERPING (server dispatch).
func (d *detector) handlePing(payload []byte) ([]byte, error) {
	info, err := decodePingInfo(payload)
	if err != nil {
		return nil, err
	}
	d.recordAck(info.From, &info)
	return encodePingInfo(d.selfInfo()), nil
}

// handleLeave services an incoming CLUSTERLEAVE: the named node is
// treated as confirmed-dead right away — a planned restart should not
// cost a suspicion timeout.
func (d *detector) handleLeave(payload []byte) error {
	id, err := decodeLeave(payload)
	if err != nil {
		return err
	}
	if id == d.st.self {
		return errors.New("cluster: refusing own leave announcement")
	}
	d.mu.Lock()
	ph := d.peers[id]
	if ph == nil {
		ph = &peerHealth{}
		d.peers[id] = ph
	}
	ph.left = true
	d.mu.Unlock()
	d.logf("cluster: node %s announced departure", id)
	d.kick()
	return nil
}

// kick nudges the evaluator without waiting for its ticker.
func (d *detector) kick() {
	select {
	case d.kickCh <- struct{}{}:
	default:
	}
}

// evalLoop periodically turns accumulated evidence into decisions.
func (d *detector) evalLoop() {
	defer close(d.doneCh)
	t := time.NewTicker(d.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-d.stopCh:
			return
		case <-t.C:
		case <-d.kickCh:
		}
		d.evaluate()
	}
}

// evaluate runs the suspicion → confirmed-dead transition for every peer
// and drives promotion for confirmed-dead primaries.
func (d *detector) evaluate() {
	m := d.st.Map()
	now := time.Now()
	quorum := (len(m.Nodes)-1)/2 + 1
	var deadPrimaries []string
	d.mu.Lock()
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.ID == d.st.self {
			continue
		}
		ph := d.peers[n.ID]
		if ph == nil || ph.dead {
			continue
		}
		suspect := ph.left || now.Sub(ph.lastAck) > d.cfg.SuspectAfter
		if !suspect {
			continue
		}
		confirmed := ph.left
		if !confirmed {
			votes := 1 // this node's own suspicion
			for pid, other := range d.peers {
				if pid == n.ID || now.Sub(other.lastAck) > d.cfg.SuspectAfter {
					continue // only live peers vote
				}
				if other.suspects[n.ID] {
					votes++
				}
			}
			confirmed = votes >= quorum
		}
		if !confirmed {
			continue
		}
		ph.dead = true
		d.confirmedDeaths.Add(1)
		d.logf("cluster: node %s confirmed dead (left=%v)", n.ID, ph.left)
		if n.Role == RolePrimary {
			deadPrimaries = append(deadPrimaries, n.ID)
		}
	}
	d.mu.Unlock()
	for _, id := range deadPrimaries {
		d.maybePromote(m, id)
	}
}

// maybePromote promotes this node over the confirmed-dead primary deadID
// if this node is its most-caught-up live replica. Every surviving
// replica runs the same deterministic rule (watermark, then lowest ID) on
// gossiped watermarks, so with settled gossip exactly one volunteers.
func (d *detector) maybePromote(m *Map, deadID string) {
	self := m.Node(d.st.self)
	if self == nil || self.Role != RoleReplica || self.PrimaryID != deadID {
		return
	}
	myWM := d.watermark()
	now := time.Now()
	d.mu.Lock()
	best := true
	for _, r := range m.ReplicasOf(deadID) {
		if r.ID == d.st.self {
			continue
		}
		ph := d.peers[r.ID]
		if ph == nil || ph.left || ph.dead || now.Sub(ph.lastAck) > d.cfg.SuspectAfter {
			continue // a replica we cannot vouch for does not outrank us
		}
		if ph.watermark > myWM || (ph.watermark == myWM && r.ID < d.st.self) {
			best = false
			break
		}
	}
	d.mu.Unlock()
	if !best {
		return
	}
	promoted, err := m.Promote(deadID, d.st.self)
	if err != nil {
		d.logf("cluster: promotion over %s failed: %v", deadID, err)
		return
	}
	if !d.st.Adopt(promoted) {
		return // someone installed a newer map first; defer to it
	}
	d.promotions.Add(1)
	d.logf("cluster: promoted self over dead primary %s at epoch %d (watermark %d)",
		deadID, promoted.Epoch, myWM)
	// Gossip the promotion to every live peer so clients heal on their
	// next NOT_OWNER instead of waiting for anti-entropy.
	cur := d.st.Map()
	timeout := d.pingTimeout()
	for i := range cur.Nodes {
		n := cur.Nodes[i]
		if n.ID == d.st.self || n.ID == deadID {
			continue
		}
		go func(addr string) {
			if got, err := PushMap(addr, cur, timeout); err == nil {
				d.st.Adopt(got)
			}
		}(n.Addr)
	}
}
