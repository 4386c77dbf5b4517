package fleet

import (
	"sync/atomic"
	"time"
)

// Shard health tracking: a per-shard circuit breaker fed by live traffic.
// Every routed attempt reports its outcome here; after FailThreshold
// consecutive failures the shard is ejected (state open) and the preference
// walk skips it, so traffic self-heals onto the replicas without any config
// change. After ProbeAfter one request is allowed through as a half-open
// probe — success closes the breaker and restores the shard to the walk,
// failure re-opens it for another ProbeAfter window. Both are constants; the
// cool-down runs on the router's clock (clock.go). Every transition is
// lock-free: the serving path only ever reads three atomics per shard.

// Health states of one shard breaker.
const (
	healthClosed   = int32(iota) // healthy, serving
	healthOpen                   // ejected after consecutive failures
	healthHalfOpen               // one probe in flight
)

// healthStateNames maps breaker states to their /v1/metrics strings.
var healthStateNames = [...]string{"healthy", "ejected", "probing"}

// FailThreshold is the consecutive-failure count that ejects a shard.
const FailThreshold = 3

// ProbeAfter is the ejection cool-down before a half-open probe.
const ProbeAfter = time.Second

// shardHealth is one shard's breaker. The zero value is a closed (healthy)
// breaker.
type shardHealth struct {
	state       atomic.Int32 // healthClosed / healthOpen / healthHalfOpen
	consecFails atomic.Int32
	openedAt    atomic.Int64 // the clock's UnixNano at the last ejection

	successes atomic.Uint64
	failures  atomic.Uint64
	ejections atomic.Uint64
}

// available reports whether the preference walk may send this shard live
// traffic right now, and whether saying so claimed the half-open probe. An
// open breaker whose cool-down has elapsed admits exactly one caller (the
// probe); everyone else keeps skipping the shard until the probe reports
// back. Only the open state reads the clock.
func (h *shardHealth) available(c clock) (ok, claim bool) {
	switch h.state.Load() {
	case healthClosed:
		return true, false
	case healthOpen:
		if c.Now().UnixNano()-h.openedAt.Load() < int64(ProbeAfter) {
			return false, false
		}
		// One winner flips open → half-open and carries the probe.
		ok = h.state.CompareAndSwap(healthOpen, healthHalfOpen)
		return ok, ok
	default: // healthHalfOpen: a probe is already in flight
		return false, false
	}
}

// releaseProbe hands back a half-open probe claim whose holder learned
// nothing: the claim carried no traffic, or its attempt was cancelled with
// the client. Without the release the breaker would stay half-open forever,
// with every caller skipping the shard.
func (h *shardHealth) releaseProbe() {
	h.state.CompareAndSwap(healthHalfOpen, healthOpen)
}

// recordSuccess closes the breaker: the shard answered, whatever state the
// breaker was in.
func (h *shardHealth) recordSuccess() {
	h.successes.Add(1)
	h.consecFails.Store(0)
	if h.state.Load() != healthClosed {
		h.state.Store(healthClosed)
	}
}

// recordFailure counts one failed attempt and ejects the shard when the
// consecutive-failure threshold is reached (or immediately when the failure
// was the half-open probe), stamping the ejection with the clock's now.
func (h *shardHealth) recordFailure(c clock) {
	h.failures.Add(1)
	n := h.consecFails.Add(1)
	if h.state.CompareAndSwap(healthHalfOpen, healthOpen) {
		// Failed probe: back to ejected for another cool-down window.
		h.openedAt.Store(c.Now().UnixNano())
		return
	}
	if n >= FailThreshold && h.state.CompareAndSwap(healthClosed, healthOpen) {
		h.openedAt.Store(c.Now().UnixNano())
		h.ejections.Add(1)
	}
}

// ShardHealthStats is one shard's breaker snapshot in /v1/metrics and
// /healthz.
type ShardHealthStats struct {
	Shard               int    `json:"shard"`
	State               string `json:"state"` // "healthy", "ejected" or "probing"
	ConsecutiveFailures int32  `json:"consecutive_failures"`
	Successes           uint64 `json:"successes"`
	Failures            uint64 `json:"failures"`
	Ejections           uint64 `json:"ejections"`
}

// snapshot reads the breaker counters for metrics reporting.
func (h *shardHealth) snapshot(shard int) ShardHealthStats {
	st := h.state.Load()
	if st < 0 || int(st) >= len(healthStateNames) {
		st = healthClosed
	}
	return ShardHealthStats{
		Shard:               shard,
		State:               healthStateNames[st],
		ConsecutiveFailures: h.consecFails.Load(),
		Successes:           h.successes.Load(),
		Failures:            h.failures.Load(),
		Ejections:           h.ejections.Load(),
	}
}
