// Package simclock provides virtual time for the simulated Internet.
//
// The paper's confirmation methodology (§4) spans multiple days: test
// domains are submitted to a vendor's categorization service and re-tested
// "after 3-5 days". Product behaviour in this repository is therefore a
// deterministic function of a Clock, and tests replay multi-day campaigns
// instantly by advancing a Manual clock.
//
// Two implementations are provided: System (wraps the wall clock, for the
// loopback-serving binaries) and Manual (test- and campaign-driven).
package simclock

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal time source consumed by the rest of the system.
//
// Components must never call time.Now directly; everything time-dependent
// (submission review delays, database sync windows, license churn) is
// derived from a Clock so that campaigns are deterministic and replayable.
type Clock interface {
	// Now reports the current virtual time.
	Now() time.Time
	// After returns a channel that delivers the (then-current) time once
	// the clock has advanced by at least d.
	After(d time.Duration) <-chan time.Time
}

// System is a Clock backed by the operating system's wall clock.
type System struct{}

// Now implements Clock.
func (System) Now() time.Time { return time.Now() }

// After implements Clock.
func (System) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Epoch is the default start time for Manual clocks. It is set shortly
// before the paper's first case-study date (September 2012) so that
// campaign timestamps land in the periods reported in Table 3.
var Epoch = time.Date(2012, time.September, 1, 0, 0, 0, 0, time.UTC)

// Manual is a deterministic, manually advanced Clock.
//
// The zero value is not usable; construct with NewManual. Manual is safe
// for concurrent use. Now takes no lock: the current instant is
// published whole, and the writers that move it (Advance, AdvanceTo)
// hold the mutex that also guards the waiters.
type Manual struct {
	now     atomic.Pointer[time.Time]
	mu      sync.Mutex
	waiters []waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewManual returns a Manual clock starting at start. If start is the zero
// time, Epoch is used.
func NewManual(start time.Time) *Manual {
	if start.IsZero() {
		start = Epoch
	}
	m := &Manual{}
	m.now.Store(&start)
	return m
}

// Now implements Clock.
func (m *Manual) Now() time.Time { return *m.now.Load() }

// After implements Clock. The returned channel fires when Advance moves the
// clock to or past now+d. A non-positive d fires immediately.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	now := m.Now()
	if d <= 0 {
		ch <- now
		return ch
	}
	m.waiters = append(m.waiters, waiter{at: now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d (which must be non-negative) and
// fires any waiters whose deadline has been reached, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: negative advance")
	}
	m.mu.Lock()
	now, due := m.advance(d)
	m.mu.Unlock()
	fire(now, due)
}

// AdvanceTo moves the clock to t. It panics if t is earlier than Now.
// The check and the move happen under one hold of the lock, so
// concurrent AdvanceTo(t) calls leave the clock at t.
func (m *Manual) AdvanceTo(t time.Time) {
	m.mu.Lock()
	d := t.Sub(m.Now())
	if d < 0 {
		m.mu.Unlock()
		panic("simclock: AdvanceTo into the past")
	}
	now, due := m.advance(d)
	m.mu.Unlock()
	fire(now, due)
}

// advance publishes the instant d after the current one and takes the
// waiters it makes due off the list. Callers hold m.mu.
func (m *Manual) advance(d time.Duration) (time.Time, []waiter) {
	now := m.Now().Add(d)
	m.now.Store(&now)
	var due, keep []waiter
	for _, w := range m.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			keep = append(keep, w)
		}
	}
	m.waiters = keep
	return now, due
}

// fire delivers now to the due waiters, in deadline order.
func fire(now time.Time, due []waiter) {
	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, w := range due {
		w.ch <- now
	}
}

// Days is a convenience for expressing the paper's multi-day waits.
func Days(n int) time.Duration { return time.Duration(n) * 24 * time.Hour }
