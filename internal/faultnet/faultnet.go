// Package faultnet is a fault-injection proxy for the cluster test suite:
// a TCP forwarder that sits between a client (or peer) and one real
// mlkv-server listener and misbehaves on command. Tests front a node's
// advertised address with a Proxy and then blackhole it (accept
// connections but forward nothing — the shape of a wedged host, which is
// what failure detection must survive, unlike a closed port whose RST
// fails fast), delay every byte, drop each connection after N forwarded
// bytes, or partition it outright. Everything is reversible: Heal()
// restores clean forwarding for new connections.
//
// The proxy is deliberately one-per-node rather than one-per-pair: on
// loopback every peer dials from 127.0.0.1, so source-address pair
// discrimination is impossible anyway. A test that wants an asymmetric
// partition gives each node its own Proxy and partitions a subset —
// traffic *to* a proxied node is cut while that node's own outbound
// dials (to unproxied peers) still flow, which is exactly the one-way
// partition the detector's quorum rule exists for.
package faultnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy forwards TCP connections from Addr() to a target address,
// injecting configured faults. The zero value is not usable; call New.
type Proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	closed bool

	// Fault switches. partitioned/blackholed gate new connections;
	// delay/dropAfter shape the forwarding of healthy ones.
	partitioned bool
	blackholed  bool
	delay       time.Duration
	dropAfter   int64 // bytes per connection per direction; 0 = unlimited
	// cuts counts Partition and Blackhole calls. acceptLoop decides a
	// connection's fate before its upstream dial and tracks it after, so a
	// cut landing in between misses it in dropAll; track severs any
	// connection accepted under an older count instead.
	cuts uint64

	accepted atomic.Int64
	refused  atomic.Int64
}

// New starts a proxy on a fresh loopback port forwarding to target.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: map[*proxyConn]struct{}{}}
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted counts connections accepted (including blackholed ones).
func (p *Proxy) Accepted() int64 { return p.accepted.Load() }

// Refused counts connections dropped by an active partition.
func (p *Proxy) Refused() int64 { return p.refused.Load() }

// Partition cuts the node off: every live proxied connection is severed
// and new connections are accepted then immediately closed (a dead-host
// RST shape). Use Blackhole for the nastier accept-and-say-nothing shape.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.blackholed = false
	p.cuts++
	p.mu.Unlock()
	p.dropAll()
}

// Blackhole keeps accepting connections but never forwards a byte in
// either direction — the failure mode that distinguishes a timeout-based
// detector from one that only notices closed ports. Live connections are
// severed so in-flight traffic stalls the same way new traffic does.
func (p *Proxy) Blackhole() {
	p.mu.Lock()
	p.blackholed = true
	p.partitioned = false
	p.cuts++
	p.mu.Unlock()
	p.dropAll()
}

// Heal restores clean forwarding for new connections (connections severed
// by a fault stay dead — TCP has no resurrection — but redials succeed).
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.blackholed = false
	p.delay = 0
	p.dropAfter = 0
	p.mu.Unlock()
}

// SetTarget re-homes the proxy: connections opened after the call forward
// to addr instead. This is how a test "restarts" a node on a fresh
// listener while the cluster keeps dialing the same advertised address.
func (p *Proxy) SetTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

// SetDelay injects d of extra latency before each forwarded chunk in each
// direction of every connection (new and existing).
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// SetDropAfter severs each connection after n forwarded bytes per
// direction — the mid-frame cut that exercises partial-write recovery.
// Applies to connections opened after the call.
func (p *Proxy) SetDropAfter(n int64) {
	p.mu.Lock()
	p.dropAfter = n
	p.mu.Unlock()
}

// Close stops the listener and severs every proxied connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.dropAll()
	return err
}

// dropAll severs every live proxied connection.
func (p *Proxy) dropAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.sever()
	}
}

func (p *Proxy) acceptLoop() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		closed, part, black := p.closed, p.partitioned, p.blackholed
		dropAfter, target, cuts := p.dropAfter, p.target, p.cuts
		p.mu.Unlock()
		switch {
		case closed, part:
			p.refused.Add(1)
			_ = down.Close()
			continue
		case black:
			// Accept and hold: the dialer's connect succeeds, then every
			// read and write stalls until its own deadline fires.
			p.accepted.Add(1)
			pc := &proxyConn{p: p, down: down}
			p.track(pc, cuts)
			continue
		}
		p.accepted.Add(1)
		up, err := dialUpstream(target)
		if err != nil {
			_ = down.Close()
			continue
		}
		pc := &proxyConn{p: p, down: down, up: up, dropAfter: dropAfter}
		if !p.track(pc, cuts) {
			continue
		}
		go pc.pump(down, up)
		go pc.pump(up, down)
	}
}

// dialUpstream connects a proxied connection to the target (a variable so
// a test can land a fault while the dial is under way).
var dialUpstream = func(target string) (net.Conn, error) {
	return net.DialTimeout("tcp", target, 5*time.Second)
}

// track registers c for dropAll, or severs it if the proxy closed or a
// fault cut connections since c was accepted (cuts is the count then).
// Reports whether c is live.
func (p *Proxy) track(c *proxyConn, cuts uint64) bool {
	p.mu.Lock()
	if p.closed || p.cuts != cuts {
		p.mu.Unlock()
		c.sever()
		return false
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
	return true
}

func (p *Proxy) untrack(c *proxyConn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// proxyConn is one proxied connection pair (up may be nil when
// blackholed — the downstream socket is held open, never serviced).
type proxyConn struct {
	p         *Proxy
	down, up  net.Conn
	dropAfter int64
	severed   atomic.Bool
}

func (c *proxyConn) sever() {
	if !c.severed.CompareAndSwap(false, true) {
		return
	}
	_ = c.down.Close()
	if c.up != nil {
		_ = c.up.Close()
	}
	c.p.untrack(c)
}

// pump copies src→dst applying the proxy's delay and this connection's
// drop-after budget. Either direction ending severs the pair: half-open
// proxied connections would hide failures the tests are trying to inject.
func (c *proxyConn) pump(src, dst net.Conn) {
	defer c.sever()
	var forwarded int64
	buf := make([]byte, 32<<10)
	for {
		limit := int64(len(buf))
		if c.dropAfter > 0 {
			if remain := c.dropAfter - forwarded; remain < limit {
				limit = remain
			}
		}
		n, err := src.Read(buf[:limit])
		if n > 0 {
			c.p.mu.Lock()
			delay := c.p.delay
			c.p.mu.Unlock()
			if delay > 0 {
				time.Sleep(delay)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			forwarded += int64(n)
			if c.dropAfter > 0 && forwarded >= c.dropAfter {
				return // budget spent: cut the connection mid-stream
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !c.severed.Load() {
				_ = err // injected faults make read errors routine
			}
			return
		}
	}
}
