package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes every byte back.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	return ln.Addr().String()
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestProxyForwards(t *testing.T) {
	p, err := New(echoServer(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	if p.Accepted() != 1 {
		t.Fatalf("Accepted = %d, want 1", p.Accepted())
	}
}

func TestProxyPartitionSeversAndRefuses(t *testing.T) {
	p, err := New(echoServer(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	one := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, one); err != nil {
		t.Fatalf("pre-partition read: %v", err)
	}

	p.Partition()

	// The live connection is severed: reads fail promptly, not by timeout.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(one); err == nil {
		t.Fatal("read on severed connection succeeded")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("severed read timed out instead of failing: %v", err)
	}

	// New connections are accepted then dropped; the first read fails.
	c2, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err == nil {
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c2.Read(one); err == nil {
			t.Fatal("read through partition succeeded")
		}
		c2.Close()
	}

	// Heal restores service for redials.
	p.Heal()
	c3 := dialProxy(t, p)
	if _, err := c3.Write([]byte("y")); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
	c3.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c3, one); err != nil {
		t.Fatalf("post-heal read: %v", err)
	}
}

func TestProxyBlackholeStallsReads(t *testing.T) {
	p, err := New(echoServer(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	p.Blackhole()

	// Connect succeeds — that is the point of a blackhole — but no data
	// ever comes back; the read must ride its deadline.
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("anyone home?")); err != nil {
		t.Fatalf("write: %v", err)
	}
	one := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	_, err = c.Read(one)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("blackholed read: got %v, want timeout", err)
	}
}

func TestProxyDropAfterCutsMidStream(t *testing.T) {
	p, err := New(echoServer(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	p.SetDropAfter(8)

	c := dialProxy(t, p)
	if _, err := c.Write([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(c) // connection must end (severed), not hang
	if len(got) > 8 {
		t.Fatalf("got %d bytes through a drop-after-8 proxy", len(got))
	}
}

func TestProxyDelay(t *testing.T) {
	p, err := New(echoServer(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	p.SetDelay(60 * time.Millisecond)

	c := dialProxy(t, p)
	start := time.Now()
	if _, err := c.Write([]byte("z")); err != nil {
		t.Fatalf("write: %v", err)
	}
	one := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.ReadFull(c, one); err != nil {
		t.Fatalf("read: %v", err)
	}
	// One byte crosses the proxy twice (in and out), each leg delayed.
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 100ms with 60ms per-leg delay", el)
	}
}

// A connection accepted before Partition but still dialing its upstream
// when the cut lands is severed once the dial returns, not left
// forwarding past the fault.
func TestProxyPartitionDuringUpstreamDial(t *testing.T) {
	dialing, resume := make(chan struct{}), make(chan struct{})
	orig := dialUpstream
	dialUpstream = func(target string) (net.Conn, error) {
		close(dialing)
		<-resume
		return orig(target)
	}
	defer func() { dialUpstream = orig }()
	p, err := New(echoServer(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	<-dialing
	p.Partition()
	close(resume)

	if _, err := c.Write([]byte("x")); err != nil {
		return // severed before the write: the outcome wanted
	}
	one := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(one); err == nil {
		t.Fatal("connection accepted before the partition still forwards after it")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("severed read timed out instead of failing: %v", err)
	}
}
