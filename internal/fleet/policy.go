package fleet

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The failover policy: which replica an attempt goes to, what its outcome
// does to the shard's breaker, and what it counts. It is written once, here,
// and driven three ways — the inline GET walk (getWalk.walk), the hedged GET
// race (getWalk.race) and the batch's failover rounds (fanoutRound) — none of
// which decides anything itself. A GET holds one preference walk (prefWalk),
// a batch one per item; the attempts that start together — a GET attempt or
// hedge alone, every sub-batch of a batch round — pick under one view of the
// breakers (roundView); settleAttempt books each outcome. A retry is counted
// when a pick moves work a failed attempt left to another replica, a failover
// for each request or item a non-primary preference answered. A driver backs
// off before a retry round and reads the attempts' start after the backoff.

// prefWalk is one preference walk: the replicas prefs[:n] a GET or a batch
// item may be served by, in ring order, and which of them have had an
// attempt. It holds arrays, not slices, so a GET keeps one on its stack and a
// batch one per item in its pooled scratch.
type prefWalk struct {
	prefs [MaxReplicas]int
	n     int
	tried uint8 // bit k: prefs[k] has had an attempt
}

// exhausted reports that every preference has had an attempt: a failure now
// is final.
func (w *prefWalk) exhausted() bool { return int(w.tried) == 1<<w.n-1 }

// pick chooses the walk's next preference under round v, marks it tried and
// returns its index: the first untried preference v finds available, failing
// that the first untried one (fail open: a sick replica's answer beats a
// guaranteed 502), or -1 when the walk is exhausted. A pick by a walk that
// has tried a replica before is a retry — unless the round is a hedge, whose
// earlier attempt is still in flight.
func (w *prefWalk) pick(v *roundView) int {
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
		return -1
	}
	if w.tried != 0 && !v.hedge {
		v.s.retries.Add(1)
	}
	w.tried |= 1 << k
	v.mark(w.prefs[k]).used = true
	return k
}

// roundView is one round's view of the shard breakers: its picks ask each
// shard's breaker at most once, note each skip once on the trace and
// remember which answers claimed a half-open probe; release hands back the
// claims that carried no traffic. marks is the caller's storage, one entry
// per shard the round may ask about, written only element by element: a
// GET's lives on its stack.
type roundView struct {
	s     *ShardRouter
	tr    *obs.Trace
	hedge bool // the round adds an attempt beside one still in flight
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

// answered books an answer — any sub-5xx status — that shard gave walk w: a
// failover when shard is not the primary. It returns the failovers booked.
func (s *ShardRouter) answered(w *prefWalk, shard int) int {
	if shard == w.prefs[0] {
		return 0
	}
	s.failovers.Add(1)
	return 1
}

// backoffBase is the failover backoff before the first retry round.
const backoffBase = 2 * time.Millisecond

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

// retryable reports whether an attempt outcome should fail over to the next
// replica: transport errors and shard-side 5xx. Sub-5xx statuses are the
// shard's deterministic answer (including 4xx) — retrying cannot change
// them, and they must not poison the shard's health.
func retryable(status int, err error) bool {
	return err != nil || status >= http.StatusInternalServerError
}

// attemptOutcome is the verdict on one finished shard attempt, GET or
// sub-batch alike: what it does to the shard's breaker, whether the walk moves
// on to the next replica, and the outcome its trace span is closed with.
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

// failedOver reports a failure that counted against the shard: the walk moves
// the work to the next replica.
func (o attemptOutcome) failedOver() bool { return o >= attemptError }

// settleAttempt classifies a finished attempt by the retryable rule and books
// it against its shard's breaker. An answer closes the breaker. A failure
// counts — unless the request's own context is done: a failure seen after that
// says nothing about the shard (a disconnected client makes every attempt fail
// with context.Canceled, and three of those would eject a healthy shard), so
// it is not counted and the half-open probe claim the attempt carried (claim),
// if any, is handed back, or the breaker would strand at "probing".
func (s *ShardRouter) settleAttempt(parent context.Context, shard int, claim bool, status int, err error) attemptOutcome {
	switch {
	case !retryable(status, err):
		s.health[shard].recordSuccess()
		return attemptAnswered
	case parent.Err() != nil:
		if claim {
			s.health[shard].releaseProbe()
		}
		return attemptCancelled
	}
	s.health[shard].recordFailure(s.clk)
	if err != nil {
		return attemptError
	}
	return attemptUpstream5xx
}

// drainLoser consumes and books a hedge race's loser after the request has
// moved on. A genuine answer still closes the breaker; any other result
// proves nothing about the shard (the loser was cancelled), so only the probe
// claim the loser carried, if any, is handed back — or the breaker would
// strand at "probing". It never touches the trace: the loser's span was
// closed on the request goroutine.
func (s *ShardRouter) drainLoser(resCh <-chan getResult, claim bool) {
	res := <-resCh
	if !retryable(res.status, res.err) {
		s.health[res.shard].recordSuccess()
	} else if claim {
		s.health[res.shard].releaseProbe()
	}
	s.putBuf(res.body)
}
