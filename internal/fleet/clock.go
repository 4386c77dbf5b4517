package fleet

import (
	"math/rand/v2"
	"time"

	"repro/internal/obs"
)

// clock is what the router waits on: the failover backoff sleeps on it, the
// hedge timer is its timer, and a breaker's cool-down runs on it. What the
// router measures — spans, latencies, attempt deadlines — stays on obs.Now.
// A router runs on realClock; its tests put in a virtual one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	NewTimer(d time.Duration) timer
}

// timer is a clock's one-shot timer, as time.Timer is the runtime's.
type timer interface {
	C() <-chan time.Time
	Stop() bool
}

// realClock is the process's clock: obs.Now, the runtime's sleeps and timers.
type realClock struct{}

func (realClock) Now() time.Time                 { return obs.Now() }
func (realClock) Sleep(d time.Duration)          { time.Sleep(d) }
func (realClock) NewTimer(d time.Duration) timer { return realTimer{time.NewTimer(d)} }

// seed draws the router's jitter state, once, when the router is built.
func (realClock) seed() uint64 { return rand.Uint64() }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }
