package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The GET /suggest hop. One request walks its preference list with one
// attempt state machine (getWalk): pick the next replica, build the attempt's
// context (attemptCtx: deadline and trace header as values), open the attempt
// span, exchange, settle the outcome against the breaker and the trace, then
// respond, fail over or give up.
//
// The machine runs in one of two modes. With no hedge armed — hedging off,
// or fewer than two replicas to race — every attempt, sequential failover
// included, runs inline on the request goroutine: no attempt can outlive the
// request, so there is no goroutine and no channel. Only when a hedge timer
// is armed does the first attempt run on its own goroutine, raced against
// the timer and then against the hedge (race); whatever is left of the list
// after that race is walked inline again. Both modes go through the same
// pick/begin/exchangeGET/settle/respond steps.
//
// An inline attempt derives no context and arms no timer: it cannot outlive
// the request, so there is nobody to cancel, and its deadline is the
// transport's to enforce (Transport.Exchange). Only a raced attempt gets a
// context.WithCancel of its own, so that the loser can be stopped.
//
// The walk reads the clock once when an attempt starts — that instant is the
// breaker check's now, the base of the deadline, the span's start and the
// attempt latency's start — once when it ends (span end, attempt latency) and
// once in finish (request latency, trace total). With Tracer.Start's read that
// is four a routed GET, and spans that share a read abut exactly.

// statusClientClosedRequest answers a request whose client went away before
// a replica did (nginx's 499; net/http has no name for it). The client never
// reads it: it is there for access logs and tests.
const statusClientClosedRequest = 499

// hedgeWonHeaderValue is the shared X-Serve-Hedge slice.
var hedgeWonHeaderValue = []string{"won"}

// getAttempt is one launched GET attempt, as the request goroutine tracks it.
type getAttempt struct {
	pref   int // index into the preference list
	span   int // the attempt's "shard" span on the request trace
	hedge  bool
	cancel context.CancelFunc // race only: stops the attempt when it loses
}

// getResult is what an attempt's exchange came back with. body is the pooled
// response buffer (see getBuf); whoever consumes the result returns it.
type getResult struct {
	slot   int // race only: which of the two raced attempts this is
	shard  int
	status int
	body   *[]byte
	err    error
	end    time.Time // when the exchange returned
}

// getWalk is the state of one GET's walk over its preference list. It lives
// on the request goroutine's stack: nothing that runs on another goroutine
// may hold a pointer to it.
type getWalk struct {
	s   *ShardRouter
	tr  *obs.Trace
	ctx context.Context // the request's: what every attempt's Done and Err are
	uri string

	// The preference list is prefs[:n]. It is kept as an array, not a slice
	// into one: a walk that pointed into itself would be moved to the heap.
	prefs            [MaxReplicas]int
	n                int
	tried, skipNoted [MaxReplicas]bool
	launched         int

	last getResult // the last failed attempt, for the 502 message (its body is back in the pool)
}

// suggest forwards the GET to the owning shard, walking the preference list
// on failure. The shard key is the FNV-1a hash of the percent-decoded q
// values (hashQueryContext), so it agrees with the batch path's hash of the
// same context strings. Responses carry X-Serve-Shard (the
// replica that answered), X-Serve-Attempts, X-Serve-Hedge (won when a
// hedged attempt's answer was served) and X-Trace-Id.
//
// Every attempt is a "shard" child span on the request trace, opened and
// closed on the request goroutine (Trace is single-goroutine by contract)
// with its outcome: ok, hedge-won, error, upstream-5xx or cancelled. Breaker
// skips and hedge firings appear as point events, so a retained trace
// reconstructs the whole failover story: which replicas were tried, in what
// order, and why.
func (s *ShardRouter) suggest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	s.requests.Add(1)
	tr := s.tracer.Start()
	tr.Adopt(r.Header["X-Trace-Id"])
	w.Header()["X-Trace-Id"] = tr.HeaderValue()
	// The path was matched as exactly /suggest: the query is all there is to
	// forward, and LoopbackTransport splits the string again at the '?'.
	g := getWalk{s: s, tr: tr, ctx: r.Context(), uri: "/suggest"}
	if r.URL.RawQuery != "" {
		g.uri = "/suggest?" + r.URL.RawQuery
	}
	g.n = len(s.ring.LookupN(hashQueryContext(r.URL.RawQuery), s.opts.Replicas, g.prefs[:0]))
	s.perShard[g.prefs[0]].Add(1)

	hedge := s.hedgeDelay()
	if g.n < 2 {
		hedge = 0
	}
	if hedge > 0 && g.race(w, hedge) {
		return
	}
	g.walk(w)
}

// walk runs the untried rest of the preference list one attempt at a time,
// inline, and answers the request: the first replica to answer is served,
// each failure backs off and moves on, and an exhausted list is a 502.
func (g *getWalk) walk(w http.ResponseWriter) {
	now := time.Now()
	for pref := g.pick(now); pref >= 0; pref = g.pick(now) {
		if g.launched > 0 {
			g.s.retries.Add(1)
			g.s.backoffSleep(g.launched)
			now = time.Now()
		}
		at, actx := g.begin(pref, false, now)
		res := g.s.exchangeGET(actx, g.prefs[pref], g.uri, now)
		now = res.end
		switch g.settle(&at, res) {
		case attemptAnswered:
			g.respond(w, &at, res)
			return
		case attemptCancelled:
			g.abandon(w)
			return
		}
	}
	g.fail(w)
}

// race runs the primary attempt against the hedge timer: if the primary has
// not answered after delay, the next replica is fired too and the first
// success wins. It reports whether the request was answered; false means
// every raced attempt failed and was settled, and the caller walks on.
func (g *getWalk) race(w http.ResponseWriter, delay time.Duration) bool {
	s := g.s
	var atts [2]getAttempt                   // primary, hedge
	resCh := make(chan getResult, len(atts)) // one send per raced attempt
	now := time.Now()
	atts[0] = g.launch(g.pick(now), false, 0, now, resCh)
	inflight := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for inflight > 0 {
		var res getResult
		select {
		case res = <-resCh:
		case <-timer.C:
			// Only the primary has been tried and the list holds at least
			// two replicas, so pick cannot come back empty.
			now = time.Now()
			next := g.pick(now)
			s.hedges.Add(1)
			s.hedgeWait.Record(delay.Microseconds())
			g.tr.Event("hedge-fire", g.prefs[next], "fired")
			atts[1] = g.launch(next, true, 1, now, resCh)
			inflight++
			continue
		}
		inflight--
		at := &atts[res.slot]
		at.cancel()
		out := g.settle(at, res)
		if out.failedOver() {
			continue
		}
		if inflight > 0 {
			// Answered or abandoned with the other raced attempt still out:
			// it is cancelled and its span closed here, on the request
			// goroutine; its result, when it lands, goes to the drain.
			loser := &atts[1-res.slot]
			loser.cancel()
			g.tr.EndAt(loser.span, g.tr.Offset(res.end), "cancelled")
			go s.drainLoser(resCh)
		}
		if out == attemptAnswered {
			g.respond(w, at, res)
		} else {
			g.abandon(w)
		}
		return true
	}
	return false
}

// launch begins an attempt and runs its exchange on a goroutine of its own,
// which reports to resCh. A raced attempt can lose, so — unlike an inline one —
// it runs under a cancellable child of its attempt context. The goroutine is
// handed copies: it must not reach the walk state, which stays on the request
// goroutine's stack.
func (g *getWalk) launch(pref int, hedge bool, slot int, now time.Time, resCh chan<- getResult) getAttempt {
	at, actx := g.begin(pref, hedge, now)
	cctx, cancel := context.WithCancel(actx)
	at.cancel = cancel
	s, shard, uri := g.s, g.prefs[pref], g.uri
	go func() {
		res := s.exchangeGET(cctx, shard, uri, now)
		res.slot = slot
		resCh <- res
	}()
	return at
}

// drainLoser consumes the raced result nobody is waiting for any more. A
// loser that genuinely answered still closes its shard's breaker; a
// cancelled or failed loser may be carrying the shard's half-open probe
// claim, which must be handed back — otherwise the breaker strands in
// "probing" and the shard never sees traffic again. It never touches the
// trace: the loser's span was closed on the request goroutine.
func (s *ShardRouter) drainLoser(resCh <-chan getResult) {
	res := <-resCh
	if !retryable(res.status, res.err) {
		s.health[res.shard].recordSuccess()
	} else {
		s.health[res.shard].releaseProbe()
	}
	s.putBuf(res.body)
}

// pick chooses the next untried preference, healthy shards first and failing
// open to ejected ones when nothing healthy remains (an answer from a sick
// replica beats a guaranteed 502). It returns -1 when the whole list has
// been tried. A shard passed over because its breaker is open is annotated
// once on the trace. Picking an open breaker past its cool-down claims its
// half-open probe; the attempt that follows settles the claim.
func (g *getWalk) pick(now time.Time) int {
	for i, sh := range g.prefs[:g.n] {
		if g.tried[i] {
			continue
		}
		if g.s.health[sh].available(g.s.hcfg, now) {
			g.tried[i] = true
			return i
		}
		if !g.skipNoted[i] {
			g.skipNoted[i] = true
			g.tr.Event("breaker-skip", sh, "skipped")
		}
	}
	for i := range g.prefs[:g.n] {
		if !g.tried[i] {
			g.tried[i] = true
			return i
		}
	}
	return -1
}

// begin opens an attempt that starts at now on preference pref: its context
// (the deadline counted from now, the trace header) and its trace span.
func (g *getWalk) begin(pref int, hedge bool, now time.Time) (getAttempt, *attemptCtx) {
	span := g.tr.BeginAt("shard", g.tr.Offset(now))
	g.tr.SetShard(span, g.prefs[pref])
	g.launched++
	return getAttempt{pref: pref, span: span, hedge: hedge}, g.s.newAttemptCtx(g.ctx, g.tr.HeaderValue(), now)
}

// exchangeGET performs one attempt's exchange, begun at start, into a pooled
// buffer, stamps when it returned and records the latency of an answer. It
// touches no request state, so it runs on the request goroutine or on a raced
// attempt's own alike.
func (s *ShardRouter) exchangeGET(ctx context.Context, shard int, uri string, start time.Time) getResult {
	buf := s.getBuf()
	status, body, err := s.tr.Exchange(ctx, shard, http.MethodGet, uri, nil, *buf)
	end := time.Now()
	if !retryable(status, err) {
		s.attemptLat.Record(end.Sub(start).Microseconds())
	}
	*buf = body
	return getResult{shard: shard, status: status, body: buf, err: err, end: end}
}

// settle books a consumed attempt's outcome (settleAttempt) and records it on
// the trace and the counters, on the request goroutine. An answer is served,
// a failure the client's departure explains stops the walk, any other
// failure walks on.
func (g *getWalk) settle(at *getAttempt, res getResult) attemptOutcome {
	s := g.s
	out := s.settleAttempt(g.ctx, res.shard, res.status, res.err, res.end)
	label := out.String()
	if out == attemptAnswered && at.hedge {
		label = "hedge-won"
		s.hedgesWon.Add(1)
	}
	g.tr.EndAt(at.span, g.tr.Offset(res.end), label)
	if out == attemptAnswered {
		if at.pref > 0 {
			s.failovers.Add(1)
		}
		return out
	}
	s.putBuf(res.body)
	if out != attemptCancelled {
		g.last = res
	}
	return out
}

// respond writes the winning attempt's answer.
func (g *getWalk) respond(w http.ResponseWriter, at *getAttempt, res getResult) {
	s, h := g.s, w.Header()
	h["X-Serve-Shard"] = s.shardHeader[res.shard]
	h["X-Serve-Attempts"] = s.attemptHeader[g.launched-1]
	if at.hedge {
		h["X-Serve-Hedge"] = hedgeWonHeaderValue
	}
	h["Content-Type"] = JSONContentType
	w.WriteHeader(res.status)
	w.Write(*res.body)
	s.putBuf(res.body)
	g.finish(false)
}

// abandon ends a request whose client went away mid-walk.
func (g *getWalk) abandon(w http.ResponseWriter) {
	g.s.cancelled.Add(1)
	writeErrorJSON(w, statusClientClosedRequest, "client_closed_request", "client went away before a replica answered")
	g.finish(false)
}

// fail answers 502 once every replica has been tried and failed.
func (g *getWalk) fail(w http.ResponseWriter) {
	msg := fmt.Sprintf("all %d replica(s) failed; shard %d last: ", g.launched, g.last.shard)
	if g.last.err != nil {
		msg += g.last.err.Error()
	} else {
		msg += fmt.Sprintf("status %d", g.last.status)
	}
	writeErrorJSON(w, http.StatusBadGateway, "bad_gateway", msg)
	g.finish(true)
}

// finish records the request latency and hands the trace back.
func (g *getWalk) finish(errored bool) {
	elapsed := g.tr.Elapsed()
	g.s.reqLat.Record(elapsed.Microseconds())
	g.s.tracer.FinishElapsed(g.tr, elapsed, errored)
}

// getBuf leases a pooled GET-path response buffer, emptied. The pool holds
// the slice headers by pointer so a lease and its return allocate nothing.
func (s *ShardRouter) getBuf() *[]byte {
	if p, _ := s.bufs.Get().(*[]byte); p != nil {
		*p = (*p)[:0]
		return p
	}
	b := make([]byte, 0, 1024)
	return &b
}

// putBuf returns a GET-path response buffer to the pool.
func (s *ShardRouter) putBuf(p *[]byte) { s.bufs.Put(p) }

// hedgeRefreshEvery is how many auto-mode hedgeDelay resolutions share one
// cached p99 scan of the attempt-latency histogram.
const hedgeRefreshEvery = 64

// hedgeDelay resolves the live hedging delay: the configured fixed value, or
// the attempt-latency p99 clamped to [200µs, 50ms] in auto mode (negative
// HedgeAfter). The auto value is cached and refreshed every
// hedgeRefreshEvery resolutions, so the hot path reads one atomic instead
// of scanning histogram buckets per request. 0 means hedging is off.
func (s *ShardRouter) hedgeDelay() time.Duration {
	ha := s.opts.HedgeAfter
	if ha >= 0 {
		return ha
	}
	if cached := s.hedgeCache.Load(); cached != 0 && s.hedgeTick.Add(1)%hedgeRefreshEvery != 0 {
		return time.Duration(cached)
	}
	d := time.Duration(s.attemptLat.Quantile(0.99)) * time.Microsecond
	const lo, hi = 200 * time.Microsecond, 50 * time.Millisecond
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	s.hedgeCache.Store(int64(d))
	return d
}
