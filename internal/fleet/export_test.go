package fleet

import (
	"slices"
	"sync"
	"time"
)

// VirtualClock is a router clock that moves only when told to. Advance steps
// it and fires the timers that fall due; Sleep — the failover backoff — steps
// it by the sleep, so a request served synchronously never waits on it. It
// records every sleep and counts every call the router makes.
type VirtualClock struct {
	mu     sync.Mutex
	made   *sync.Cond // broadcast when a timer is made
	now    time.Time
	timers []*virtualTimer // armed, not yet fired or stopped
	nmade  int             // timers made so far
	sleeps []time.Duration
	calls  int
	// onSleep, when set, runs after every Sleep, outside the clock's lock:
	// a test's hook for what happens while the router backs off.
	onSleep func()
}

// NewVirtualClock returns a virtual clock standing at a fixed instant.
func NewVirtualClock() *VirtualClock {
	c := &VirtualClock{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
	c.made = sync.NewCond(&c.mu)
	return c
}

// UseClock puts c in as s's clock and seed as the state of its jitter
// source. Call it before s serves anything.
func UseClock(s *ShardRouter, c *VirtualClock, seed uint64) {
	s.clk = c
	s.rng.Store(seed)
}

// ClockOf returns the virtual clock UseClock put into s.
func ClockOf(s *ShardRouter) *VirtualClock { return s.clk.(*VirtualClock) }

func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	return c.now
}

func (c *VirtualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.calls++
	c.sleeps = append(c.sleeps, d)
	c.advance(d)
	c.mu.Unlock()
	if c.onSleep != nil {
		c.onSleep()
	}
}

func (c *VirtualClock) NewTimer(d time.Duration) timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	t := &virtualTimer{c: c, ch: make(chan time.Time, 1), when: c.now.Add(d)}
	c.timers = append(c.timers, t)
	c.nmade++
	c.made.Broadcast()
	c.advance(0) // a timer of d <= 0 fires at once
	return t
}

// Advance steps the clock by d and fires every timer that falls due.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(d)
}

func (c *VirtualClock) advance(d time.Duration) {
	c.now = c.now.Add(d)
	c.timers = slices.DeleteFunc(c.timers, func(t *virtualTimer) bool {
		if t.when.After(c.now) {
			return false
		}
		t.ch <- c.now
		return true
	})
}

// AwaitTimers blocks until n timers have been made on the clock in all: a
// test that has a request in flight waits here for the request's hedge timer
// before it steps past the hedge delay.
func (c *VirtualClock) AwaitTimers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.nmade < n {
		c.made.Wait()
	}
}

// Sleeps returns the sleeps taken so far, in order.
func (c *VirtualClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.sleeps)
}

// Calls reports how many times the router has called the clock.
func (c *VirtualClock) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

type virtualTimer struct {
	c    *VirtualClock
	ch   chan time.Time // room for the one firing
	when time.Time
}

func (t *virtualTimer) C() <-chan time.Time { return t.ch }

func (t *virtualTimer) Stop() bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.timers)
	c.timers = slices.DeleteFunc(c.timers, func(p *virtualTimer) bool { return p == t })
	return len(c.timers) < n
}
