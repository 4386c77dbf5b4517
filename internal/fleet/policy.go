package fleet

import (
	"context"
	"math/bits"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The failover policy, written once as a pure step on a preference walk
// (prefWalk.step): an event — a round may start (the request began, or its
// backoff ended), an attempt settled, the hedge timer fired — in; one action
// — try a replica (as a retry or a hedge), back off, respond, abandon (499),
// give up (502) or wait — out, with the settled attempt's breaker booking
// and the counters as data. The step reads no clock, trace, counter or
// transport; the breakers reach it only through the round's view
// (roundView). The drivers — the GET walk (getWalk.run), hedged race
// included, and the batch rounds (fanoutRound) — carry its actions out, and
// carry and ready apply what it returns. A GET holds one walk, a batch one
// per item; a GET attempt or its hedge alone, or every sub-batch of a batch
// round, pick under one view of the breakers.

// prefWalk is one preference walk: the replicas prefs[:n] a GET or a batch
// item may be served by, in ring order, which of them have had an attempt,
// how many attempts are in flight and whether the walk is over. It holds
// arrays, not slices, so a GET keeps one on its stack and a batch one per
// item in its pooled scratch, and a hedge race's loser settles on a copy.
type prefWalk struct {
	prefs  [MaxReplicas]int
	n      int
	tried  uint8 // bit k: prefs[k] has had an attempt
	flying uint8 // attempts sent and not yet settled
	over   bool  // the walk responded, abandoned or gave up: what settles now is a hedge loser
}

// attempts is how many attempts the walk has sent.
func (w *prefWalk) attempts() int { return bits.OnesCount8(w.tried) }

// eventKind is what happened to a walk.
type eventKind uint8

const (
	evReady   eventKind = iota // a round may start: the request began, or a backoff ended
	evGone                     // a round could start, but the client has left
	evSettled                  // an attempt finished
	evHedge                    // the hedge timer fired
)

// event is what a driver tells the step.
type event struct {
	kind  eventKind
	out   attemptOutcome // evSettled: how the attempt ended
	shard int            // evSettled: where it went
	claim bool           // evSettled: it carried its shard's half-open probe claim
}

// actionKind is what a driver does next.
type actionKind uint8

const (
	actWait    actionKind = iota // nothing until the next event
	actTry                       // send an attempt to shard
	actBackoff                   // sleep the backoff before retry round k
	actRespond                   // pass on the answer the settled attempt brought
	actAbandon                   // the client left: 499, or nothing more on a stream
	actGiveUp                    // every preference failed: 502
)

// action is the step's verdict: what to do next, what the settled attempt
// books on its shard (shard), and the counters the action moves. Event and
// action keep to four fields each, so the compiler holds them in registers:
// the batch asks the step twice per item, and an eight-field action, copied
// through memory at every return, made an in-process routed batch-64 about
// 10 % slower (2-vCPU x86-64 VM).
type action struct {
	kind  actionKind
	shard int      // actTry: where to send the attempt; with a booking: the shard booked
	k     int      // actBackoff: the retry round
	flags actFlags // the booking, the probe claim and the counters
}

// actFlags are an action's booking (at most one book* bit), its probe claim
// and the counters it moves.
type actFlags uint8

const (
	bookSuccess  actFlags = 1 << iota // the shard answered: close the breaker
	bookFailure                       // count a failure against the shard
	bookRelease                       // nothing learned: hand back the probe claim the attempt carried
	flagClaim                         // actTry: the attempt carries its shard's half-open probe claim
	flagRetry                         // actTry: the attempt moves work a failed attempt left
	flagHedge                         // actTry: the attempt runs beside the one still in flight
	flagFailover                      // actRespond: a non-primary preference answered

	bookMask = bookSuccess | bookFailure | bookRelease
)

// step advances the walk by event e and returns the action it calls for. v is
// the round's view of the breakers, asked only by a pick (evReady, evHedge).
// A round starts only on evReady: a client that has left (evGone) gets no
// attempt, and a round after the first comes only after the backoff that a
// failure with nothing else in flight asked for. Only a first attempt alone
// in flight is hedged, so at most two attempts fly at once.
func (w *prefWalk) step(v *roundView, e event) action {
	switch {
	case e.kind == evSettled:
		return w.settle(e)
	case w.over:
		return action{}
	case e.kind == evHedge:
		if w.flying != 1 || w.attempts() != 1 {
			return action{}
		}
		return w.pick(v, true)
	case w.flying != 0:
		return action{}
	case e.kind == evGone:
		w.over = true
		return action{kind: actAbandon}
	}
	return w.pick(v, false)
}

// pick chooses the walk's next preference under round v and sends an attempt
// there: the first untried preference v finds available, failing that the
// first untried one (fail open: a sick replica's answer beats a guaranteed
// 502). A pick by a walk that has tried a replica before is a retry — unless
// it is a hedge, whose earlier attempt is still in flight.
func (w *prefWalk) pick(v *roundView, hedge bool) action {
	k := -1
	for i, sh := range w.prefs[:w.n] {
		if w.tried&(1<<i) != 0 {
			continue
		}
		if k < 0 {
			k = i
		}
		if v.mark(sh).avail {
			k = i
			break
		}
	}
	if k < 0 {
		return action{}
	}
	a := action{kind: actTry, shard: w.prefs[k]}
	switch {
	case hedge:
		a.flags = flagHedge
	case w.tried != 0:
		a.flags = flagRetry
	}
	m := v.mark(a.shard)
	m.used = true
	if m.claim {
		a.flags |= flagClaim
	}
	w.tried |= 1 << k
	w.flying++
	return a
}

// settle books a settled attempt and decides what follows it. An answer —
// any sub-5xx status — closes the breaker and is passed on. A failure seen
// after the client left, or by a hedge loser after the walk is over, says
// nothing about the shard: it books no failure and only hands back the probe
// claim the attempt carried, if any, or the breaker would strand at
// "probing". Any other failure counts against the shard and moves the work
// on: after a backoff to the next untried preference, once nothing else is in
// flight; to a 502 once every preference has had an attempt.
func (w *prefWalk) settle(e event) action {
	w.flying--
	a := action{shard: e.shard, flags: bookFailure}
	switch {
	case e.out == attemptAnswered:
		a.flags = bookSuccess
	case e.out == attemptCancelled || w.over:
		a.flags = 0
		if e.claim {
			a.flags = bookRelease
		}
	}
	switch {
	case w.over:
		return a
	case e.out == attemptAnswered:
		a.kind = actRespond
		if e.shard != w.prefs[0] {
			a.flags |= flagFailover
		}
	case e.out == attemptCancelled:
		a.kind = actAbandon
	case w.flying != 0:
		return a // the other raced attempt may still answer
	case int(w.tried) != 1<<w.n-1:
		a.kind, a.k = actBackoff, w.attempts()
		return a
	default:
		a.kind = actGiveUp
	}
	w.over = true
	return a
}

// roundView is one round's view of the shard breakers: its picks ask each
// shard's breaker at most once, note each skip once on the trace and
// remember which answers claimed a half-open probe; release hands back the
// claims that carried no traffic. marks is the caller's storage, one entry
// per shard the round may ask about, written only element by element: a
// GET's lives on its stack. A view whose marks[:n] are filled in advance asks
// no breaker about those shards: that is how a test feeds the step a table.
type roundView struct {
	s     *ShardRouter
	tr    *obs.Trace
	marks []viewMark
	n     int // marks[:n] are the shards asked about so far
}

// viewMark is what a round learned about one shard.
type viewMark struct {
	shard int
	avail bool // the breaker admits traffic this round
	claim bool // admitting it claimed the half-open probe
	used  bool // a pick sent work there
}

// mark returns the round's mark for shard, asking the breaker on first use:
// a probe claim then covers every item the round sends there, and a skip is
// noted on the trace once.
func (v *roundView) mark(shard int) *viewMark {
	for i := range v.marks[:v.n] {
		if v.marks[i].shard == shard {
			return &v.marks[i]
		}
	}
	m := &v.marks[v.n]
	v.n++
	*m = viewMark{shard: shard}
	m.avail, m.claim = v.s.health[shard].available(v.s.clk)
	if !m.avail {
		v.tr.Event("breaker-skip", shard, "skipped")
	}
	return m
}

// release hands back every probe claim the round made that no pick sent work
// to, so no breaker strands half-open.
func (v *roundView) release() {
	for _, m := range v.marks[:v.n] {
		if m.claim && !m.used {
			v.s.health[m.shard].releaseProbe()
		}
	}
}

// backoffBase is the failover backoff before the first retry round.
const backoffBase = 2 * time.Millisecond

// carry applies a step's bookings and counters: the settled attempt's booking
// on its shard's breaker, a retry, a hedge, a failover. Most actions carry
// none, and the test for that is what is inlined into the drivers.
func (s *ShardRouter) carry(a action) {
	if a.flags != 0 {
		s.apply(a)
	}
}

// apply is carry's out-of-line half: the only place a step's booking reaches
// a breaker and its counters reach the router's.
func (s *ShardRouter) apply(a action) {
	switch a.flags & bookMask {
	case bookSuccess:
		s.health[a.shard].recordSuccess()
	case bookFailure:
		s.health[a.shard].recordFailure(s.clk)
	case bookRelease:
		s.health[a.shard].releaseProbe()
	}
	if a.flags&flagRetry != 0 {
		s.retries.Add(1)
	}
	if a.flags&flagHedge != 0 {
		s.hedges.Add(1)
	}
	if a.flags&flagFailover != 0 {
		s.failovers.Add(1)
	}
}

// ready carries out a backoff action, if a is one, and returns the event
// that ends it: the next round may start (evReady), unless the client of the
// request under ctx has left meanwhile (evGone). A request begins with ready
// too, on no action.
func (s *ShardRouter) ready(ctx context.Context, a action) event {
	if a.kind == actBackoff {
		s.backoffSleep(a.k)
	}
	if ctx.Err() != nil {
		return event{kind: evGone}
	}
	return event{kind: evReady}
}

// backoffSleep sleeps the failover backoff before retry round k >= 1 on the
// router's clock: backoffBase doubling per round with ±50% jitter, so the
// replicas of a struggling ring do not retry in lockstep. The jitter is a
// splitmix64 draw (Steele, Lea & Flood, OOPSLA 2014) on the router's state.
func (s *ShardRouter) backoffSleep(k int) {
	d := backoffBase << (k - 1)
	z := s.rng.Add(0x9e3779b97f4a7c15)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	s.clk.Sleep(d/2 + time.Duration((z^z>>31)%uint64(d))) // [d/2, 3d/2)
}

// attemptOutcome is how one finished shard attempt ended, GET or sub-batch
// alike: what the step is told, and the outcome its trace span is closed
// with.
type attemptOutcome uint8

const (
	attemptAnswered    attemptOutcome = iota // the shard answered, with any sub-5xx status: pass it on
	attemptCancelled                         // failed after the client went away: nothing learned
	attemptError                             // transport error or unusable answer: fail over
	attemptUpstream5xx                       // shard-side 5xx: fail over
)

// attemptOutcomeNames maps outcomes to what their trace spans are closed with.
var attemptOutcomeNames = [...]string{"ok", "cancelled", "error", "upstream-5xx"}

// String names the outcome on the attempt's trace span.
func (o attemptOutcome) String() string { return attemptOutcomeNames[o] }

// outcomeOf classifies an attempt that ended with status and err under
// context ctx. Any sub-5xx status (4xx included) is the shard's
// deterministic answer: retrying cannot change it, and it must not poison
// the shard's health. The answer's test is all that is inlined into the
// exchanges; failures are failed's to classify.
func outcomeOf(ctx context.Context, status int, err error) attemptOutcome {
	if err == nil && status < http.StatusInternalServerError {
		return attemptAnswered
	}
	return failed(ctx, err)
}

// failed classifies a failed attempt: a transport error or a shard-side 5xx
// fails over, but a failure seen once ctx is done is cancelled, not an
// error — a disconnected client makes every attempt fail with
// context.Canceled, and three of those must not eject a healthy shard. Kept
// out of line, so that outcomeOf stays small enough to inline.
//
//go:noinline
func failed(ctx context.Context, err error) attemptOutcome {
	switch {
	case ctx.Err() != nil:
		return attemptCancelled
	case err != nil:
		return attemptError
	}
	return attemptUpstream5xx
}
