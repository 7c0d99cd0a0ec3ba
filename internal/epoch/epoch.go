// Package epoch implements epoch-based protection in the style of the FASTER
// key-value store. Threads of execution (sessions) declare when they are
// operating on shared, latch-free structures; maintenance work that would
// invalidate concurrent readers (recycling a log page frame, resizing an
// index) is deferred with BumpWith and executed only once every protected
// session has observed the new epoch — i.e., once no reader can still hold a
// reference acquired before the bump.
package epoch

import (
	"math"
	"sync"
	"sync/atomic"
)

const unprotected = 0

// Manager tracks the global epoch, per-session protection marks, and the
// drain list of deferred actions.
type Manager struct {
	current atomic.Uint64

	slots []slot
	// used is the high-water mark of registered slots: slots[used:] have
	// never held a session, so SafeEpoch does not scan them.
	used atomic.Int32
	// npending mirrors len(pending) so that tryDrain — run by every
	// Unprotect, i.e. every key operation of every session — can see
	// "nothing to do" without taking mu. It is written only under mu.
	npending atomic.Int32

	mu      sync.Mutex
	free    []int     // stack of unregistered slots, initially lowest on top; used is a high-water mark either way
	pending []trigger // actions awaiting safety, ordered by epoch
}

// slot is padded to a cache line so sessions on different cores do not
// false-share their protection marks.
type slot struct {
	epoch atomic.Uint64 // 0 = unprotected; otherwise the observed epoch
	_     [7]uint64
}

type trigger struct {
	epoch  uint64
	action func()
}

// NewManager returns a Manager that can serve up to maxSessions concurrent
// sessions. The first epoch is 1 so that 0 can mean "unprotected".
func NewManager(maxSessions int) *Manager {
	if maxSessions <= 0 {
		maxSessions = 64
	}
	m := &Manager{slots: make([]slot, maxSessions)}
	m.current.Store(1)
	// Slots are handed out from index 0 up, which keeps used — and so the
	// SafeEpoch scan — proportional to the sessions that ever coexisted.
	m.free = make([]int, maxSessions)
	for i := range m.free {
		m.free[i] = maxSessions - 1 - i
	}
	return m
}

// Current returns the current global epoch.
func (m *Manager) Current() uint64 { return m.current.Load() }

// Session is one registered participant. A Session is not safe for
// concurrent use; each goroutine must register its own.
type Session struct {
	m    *Manager
	slot int
}

// Register claims a session slot. It returns nil if all slots are taken.
func (m *Manager) Register() *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free) == 0 {
		return nil
	}
	i := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	if int32(i) >= m.used.Load() {
		m.used.Store(int32(i) + 1)
	}
	return &Session{m: m, slot: i}
}

// Unregister releases the session's slot. The session must be unprotected.
func (s *Session) Unregister() {
	s.m.slots[s.slot].epoch.Store(unprotected)
	s.m.mu.Lock()
	s.m.free = append(s.m.free, s.slot)
	s.m.mu.Unlock()
	s.m.tryDrain()
}

// Protect marks the session as operating at the current epoch. Calls may
// nest with Refresh; a protected session blocks deferred actions queued at
// later epochs.
func (s *Session) Protect() {
	s.m.slots[s.slot].epoch.Store(s.m.current.Load())
}

// Refresh re-reads the global epoch (allowing deferred actions queued before
// the session's previous mark to become safe) and opportunistically drains.
func (s *Session) Refresh() {
	s.m.slots[s.slot].epoch.Store(s.m.current.Load())
	s.m.tryDrain()
}

// Unprotect marks the session idle and opportunistically drains.
func (s *Session) Unprotect() {
	s.m.slots[s.slot].epoch.Store(unprotected)
	s.m.tryDrain()
}

// Protected reports whether the session currently holds protection.
func (s *Session) Protected() bool {
	return s.m.slots[s.slot].epoch.Load() != unprotected
}

// BumpWith advances the global epoch and schedules action to run as soon as
// every session protected before the bump has refreshed or unprotected.
// The action may run synchronously on this call if nothing is protected.
func (m *Manager) BumpWith(action func()) {
	e := m.current.Add(1)
	m.mu.Lock()
	m.pending = append(m.pending, trigger{epoch: e, action: action})
	m.npending.Store(int32(len(m.pending)))
	m.mu.Unlock()
	m.tryDrain()
}

// Bump advances the global epoch with no deferred action.
func (m *Manager) Bump() { m.current.Add(1) }

// SafeEpoch returns the largest epoch E such that every protected session
// has observed an epoch >= E. Actions queued at epochs <= SafeEpoch may run.
func (m *Manager) SafeEpoch() uint64 {
	safe := uint64(math.MaxUint64)
	slots := m.slots[:m.used.Load()]
	for i := range slots {
		if e := slots[i].epoch.Load(); e != unprotected && e < safe {
			safe = e
		}
	}
	if safe == math.MaxUint64 {
		return m.current.Load()
	}
	return safe
}

// tryDrain runs every pending action whose epoch has become safe. Actions
// run outside the manager lock, in epoch order.
//
// With nothing pending it returns on one atomic load, without the lock. No
// action is stranded by that: BumpWith publishes the count before its own
// drain scans the slots, and a session clears (or advances) its slot before
// it loads the count, so — the atomics being sequentially consistent —
// either the session sees the count and drains, or the bumper's scan sees
// the session's slot already clear.
func (m *Manager) tryDrain() {
	if m.npending.Load() == 0 {
		return
	}
	m.mu.Lock()
	safe := m.SafeEpoch()
	var ready []trigger
	rest := m.pending[:0]
	for _, t := range m.pending {
		if t.epoch <= safe {
			ready = append(ready, t)
		} else {
			rest = append(rest, t)
		}
	}
	m.pending = rest
	m.npending.Store(int32(len(rest)))
	m.mu.Unlock()
	for _, t := range ready {
		t.action()
	}
}

// Drain blocks logically until all currently pending actions have run, by
// repeatedly attempting the drain. It must only be called from an
// unprotected context, otherwise the caller deadlocks against itself.
func (m *Manager) Drain() {
	for m.npending.Load() != 0 {
		m.tryDrain()
	}
}
