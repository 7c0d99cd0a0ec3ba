package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBumpWithNoSessionsRunsImmediately(t *testing.T) {
	m := NewManager(4)
	ran := false
	m.BumpWith(func() { ran = true })
	if !ran {
		t.Fatal("action should run immediately with no protected sessions")
	}
}

func TestActionDeferredUntilRefresh(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	s.Protect()

	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	if ran.Load() {
		t.Fatal("action ran while a stale session was protected")
	}
	s.Refresh() // session observes the new epoch; action becomes safe
	if !ran.Load() {
		t.Fatal("action did not run after the protected session refreshed")
	}
	s.Unprotect()
	s.Unregister()
}

func TestActionDeferredUntilUnprotect(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	s.Protect()
	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	if ran.Load() {
		t.Fatal("action ran too early")
	}
	s.Unprotect()
	if !ran.Load() {
		t.Fatal("action did not run after unprotect")
	}
	s.Unregister()
}

func TestMultipleSessionsAllMustAdvance(t *testing.T) {
	m := NewManager(4)
	s1 := m.Register()
	s2 := m.Register()
	s1.Protect()
	s2.Protect()

	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	s1.Refresh()
	if ran.Load() {
		t.Fatal("action ran before all sessions advanced")
	}
	s2.Refresh()
	if !ran.Load() {
		t.Fatal("action did not run after all sessions advanced")
	}
	s1.Unprotect()
	s2.Unprotect()
	s1.Unregister()
	s2.Unregister()
}

func TestActionsRunInEpochOrder(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	s.Protect()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		i := i
		m.BumpWith(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Unprotect()
	m.Drain()
	if len(order) != 5 {
		t.Fatalf("got %d actions, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("actions out of order: %v", order)
		}
	}
	s.Unregister()
}

func TestRegisterExhaustion(t *testing.T) {
	m := NewManager(2)
	a := m.Register()
	b := m.Register()
	if a == nil || b == nil {
		t.Fatal("expected two successful registrations")
	}
	if c := m.Register(); c != nil {
		t.Fatal("third registration should fail")
	}
	a.Unregister()
	if c := m.Register(); c == nil {
		t.Fatal("slot should be reusable after unregister")
	}
	_ = b
}

func TestSafeEpoch(t *testing.T) {
	m := NewManager(4)
	if m.SafeEpoch() != m.Current() {
		t.Fatal("safe epoch should equal current with no sessions")
	}
	s := m.Register()
	s.Protect()
	e0 := m.Current()
	m.Bump()
	m.Bump()
	if got := m.SafeEpoch(); got != e0 {
		t.Fatalf("SafeEpoch = %d, want %d (the stale session's mark)", got, e0)
	}
	s.Refresh()
	if got := m.SafeEpoch(); got != m.Current() {
		t.Fatalf("SafeEpoch = %d, want current %d", got, m.Current())
	}
	s.Unprotect()
	s.Unregister()
}

func TestConcurrentProtectRefreshStress(t *testing.T) {
	m := NewManager(16)
	const workers = 8
	const iters = 2000
	var executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s := m.Register()
			if s == nil {
				t.Error("registration failed")
				return
			}
			defer s.Unregister()
			for i := 0; i < iters; i++ {
				s.Protect()
				if i%7 == 0 {
					m.BumpWith(func() { executed.Add(1) })
				}
				s.Refresh()
				s.Unprotect()
			}
		}(w)
	}
	wg.Wait()
	m.Drain()
	want := int64(workers * ((iters + 6) / 7))
	if executed.Load() != want {
		t.Fatalf("executed %d actions, want %d", executed.Load(), want)
	}
}

func TestProtectedFlag(t *testing.T) {
	m := NewManager(2)
	s := m.Register()
	if s.Protected() {
		t.Fatal("fresh session should be unprotected")
	}
	s.Protect()
	if !s.Protected() {
		t.Fatal("session should report protected")
	}
	s.Unprotect()
	if s.Protected() {
		t.Fatal("session should report unprotected")
	}
	s.Unregister()
}

// TestIdleDrainCheckTakesNoLock pins the fast path every key operation
// rides: with no action pending, Protect/Refresh/Unprotect must not touch
// the manager lock. The test holds the lock itself, so a session that
// takes it never finishes.
func TestIdleDrainCheckTakesNoLock(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	m.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			s.Protect()
			s.Refresh()
			s.Unprotect()
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("Protect/Refresh/Unprotect with nothing pending blocked on the manager lock")
	}
	m.mu.Unlock()
	<-done
	s.Unregister()
}

// TestUnprotectRacingBumpStrandsNothing races the one Unprotect that makes
// an action safe against the BumpWith that queues it, and then lets
// nothing else happen: whichever of the two drains, the action must have
// run once both return. A lock-free "nothing pending" check that could miss
// the bumper's publication would leave it queued forever.
func TestUnprotectRacingBumpStrandsNothing(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	defer s.Unregister()
	for round := 0; round < 20000; round++ {
		s.Protect()
		var ran atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			m.BumpWith(func() { ran.Store(true) })
		}()
		go func() {
			defer wg.Done()
			s.Unprotect()
		}()
		wg.Wait()
		if !ran.Load() {
			t.Fatalf("round %d: action stranded after BumpWith and Unprotect both returned", round)
		}
	}
}

// TestSpinningSessionsRunEveryAction: sessions spinning Protect/Unprotect
// (what Get/Put/RMW do per key) against a bumper. Nobody calls Drain, so
// every action the bumper could not run itself must be run by a session's
// own Unprotect.
func TestSpinningSessionsRunEveryAction(t *testing.T) {
	m := NewManager(16)
	const sessions, actions = 4, 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		s := m.Register()
		if s == nil {
			t.Fatal("registration failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Protect()
				s.Unprotect()
			}
		}()
	}
	var ran atomic.Int64
	for i := 0; i < actions; i++ {
		m.BumpWith(func() { ran.Add(1) })
	}
	deadline := time.Now().Add(10 * time.Second)
	for ran.Load() != actions && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := ran.Load(); got != actions {
		t.Fatalf("%d of %d actions ran", got, actions)
	}
}

// TestSafeEpochScansRegisteredSlotsOnly: slots are handed out from index 0
// and the scan stops at the high-water mark, however large the manager.
func TestSafeEpochScansRegisteredSlotsOnly(t *testing.T) {
	m := NewManager(512)
	a, b, c := m.Register(), m.Register(), m.Register()
	if got := m.used.Load(); got != 3 {
		t.Fatalf("high-water mark %d after three registrations, want 3", got)
	}
	c.Protect() // the highest registered slot must still be inside the scan
	e := m.Current()
	m.Bump()
	if got := m.SafeEpoch(); got != e {
		t.Fatalf("SafeEpoch = %d, want %d (the mark of the last registered slot)", got, e)
	}
	c.Unprotect()
	b.Unregister()
	if d := m.Register(); d == nil || m.used.Load() != 3 {
		t.Fatalf("a freed slot was not reused: high-water mark %d", m.used.Load())
	}
	_ = a
}

// BenchmarkProtectUnprotectIdle is the per-key epoch cost of a store with
// nothing to drain, from every core at once; it was a global mutex.
func BenchmarkProtectUnprotectIdle(b *testing.B) {
	m := NewManager(512)
	b.RunParallel(func(pb *testing.PB) {
		s := m.Register()
		defer s.Unregister()
		for pb.Next() {
			s.Protect()
			s.Unprotect()
		}
	})
}
