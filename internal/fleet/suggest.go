package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The GET /suggest hop. One request walks its preference list with one
// attempt state machine (getWalk): pick the next replica (policy.go), build
// the attempt's context (attemptCtx: deadline and trace header as values),
// open the attempt span, exchange, settle the outcome against the breaker and
// the trace, then respond, fail over or give up.
//
// The machine runs in one of two modes. With no hedge armed — hedging off,
// or fewer than two replicas to race — every attempt, sequential failover
// included, runs inline on the request goroutine: no attempt can outlive the
// request, so there is no goroutine and no channel. Only when a hedge timer
// is armed does the first attempt run on its own goroutine, raced against
// the timer and then against the hedge (race); whatever is left of the list
// after that race is walked inline again. Both modes go through the same
// begin/exchangeGET/settle/respond steps; each attempt is a policy round.
//
// An inline attempt derives no context and arms no timer: it cannot outlive
// the request, so there is nobody to cancel, and its deadline is the
// transport's to enforce (Transport.Exchange). Only a raced attempt gets a
// context.WithCancel of its own, so that the loser can be stopped.
//
// The walk measures on obs.Now (monotonic only): an attempt's start is the
// deadline's base, the span's and attempt latency's start; the first
// attempt's is the trace's own start (Trace.Started, no read).
// The walk reads when an attempt ends and once in finish: with StartFrom's,
// three reads an unhedged GET, and spans that share a read abut exactly.

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
	claim  bool               // the attempt carries its shard's half-open probe claim
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

// getWalk is the state of one GET's walk over its preference list, the
// request's trace recorder with it. It is pooled (getWalkOf) and used by the
// request goroutine alone: nothing that runs on another goroutine may hold a
// pointer to it.
type getWalk struct {
	s   *ShardRouter
	tr  obs.Trace
	ctx context.Context // the request's: what every attempt's Done and Err are
	uri string

	prefWalk
	launched int

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
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	s.requests.Add(1)
	// The path was matched as exactly /suggest: the query is all there is to
	// forward, and LoopbackTransport splits the string again at the '?'.
	g := s.getWalkOf(r.Context(), "/suggest")
	defer s.putWalk(g)
	s.tracer.StartFrom(&g.tr, r.Header["X-Trace-Id"])
	w.Header()["X-Trace-Id"] = g.tr.HeaderValue()
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
	for !g.exhausted() {
		now := g.tr.Started()
		if g.launched > 0 { // a retry, or the rest of the list after a lost race
			g.s.backoffSleep(g.launched)
			now = obs.Now()
		}
		at, actx := g.begin(false, now)
		res := g.s.exchangeGET(actx, g.prefs[at.pref], g.uri, now)
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
	now := g.tr.Started()
	atts[0] = g.launch(false, 0, now, resCh)
	inflight := 1
	timer := s.clk.NewTimer(delay)
	defer timer.Stop()
	for inflight > 0 {
		var res getResult
		select {
		case res = <-resCh:
		case <-timer.C():
			// Only the primary has been tried and the list holds at least
			// two replicas, so the hedge's pick cannot come back empty.
			s.hedges.Add(1)
			s.hedgeWait.Record(delay.Microseconds())
			atts[1] = g.launch(true, 1, obs.Now(), resCh)
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
			go s.drainLoser(resCh, loser.claim)
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
func (g *getWalk) launch(hedge bool, slot int, now time.Time, resCh chan<- getResult) getAttempt {
	at, actx := g.begin(hedge, now)
	cctx, cancel := context.WithCancel(actx)
	at.cancel = cancel
	s, shard, uri := g.s, g.prefs[at.pref], g.uri
	go func() {
		res := s.exchangeGET(cctx, shard, uri, now)
		res.slot = slot
		resCh <- res
	}()
	return at
}

// begin opens an attempt that starts at now: it picks the replica in a
// policy round of its own, then builds the attempt's context (the deadline
// counted from now, the trace header) and its trace span. The walk is never
// exhausted here: walk checks, and a race starts with two untried replicas.
func (g *getWalk) begin(hedge bool, now time.Time) (getAttempt, *attemptCtx) {
	var marks [MaxReplicas]viewMark
	v := roundView{s: g.s, tr: &g.tr, hedge: hedge, marks: marks[:]}
	k := g.pick(&v)
	v.release()
	sh := g.prefs[k]
	if hedge {
		g.tr.Event("hedge-fire", sh, "fired")
	}
	span := g.tr.BeginAt("shard", g.tr.Offset(now))
	g.tr.SetShard(span, sh)
	g.launched++
	return getAttempt{pref: k, span: span, hedge: hedge, claim: v.mark(sh).claim}, g.s.newAttemptCtx(g.ctx, g.tr.HeaderValue(), now)
}

// exchangeGET performs one attempt's exchange, begun at start, into a pooled
// buffer, stamps when it returned and records the latency of an answer. It
// touches no request state, so it runs on the request goroutine or on a raced
// attempt's own alike.
func (s *ShardRouter) exchangeGET(ctx context.Context, shard int, uri string, start time.Time) getResult {
	buf := s.getBuf()
	status, body, err := s.tr.Exchange(ctx, shard, http.MethodGet, uri, nil, *buf)
	end := obs.Now()
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
	out := s.settleAttempt(g.ctx, res.shard, at.claim, res.status, res.err)
	label := out.String()
	if out == attemptAnswered && at.hedge {
		label = "hedge-won"
		s.hedgesWon.Add(1)
	}
	g.tr.EndAt(at.span, g.tr.Offset(res.end), label)
	if out == attemptAnswered {
		s.answered(&g.prefWalk, res.shard)
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
	h["Content-Type"] = obs.JSONContentType
	w.WriteHeader(res.status)
	w.Write(*res.body)
	s.putBuf(res.body)
	g.finish(false)
}

// abandon ends a request whose client went away mid-walk.
func (g *getWalk) abandon(w http.ResponseWriter) {
	g.s.cancelled.Add(1)
	obs.WriteError(w, statusClientClosedRequest, "client_closed_request", "client went away before a replica answered")
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
	obs.WriteError(w, http.StatusBadGateway, "bad_gateway", msg)
	g.finish(true)
}

// finish records the request latency and hands the trace back.
func (g *getWalk) finish(errored bool) {
	elapsed := g.tr.Elapsed()
	g.s.reqLat.Record(elapsed.Microseconds())
	g.s.tracer.FinishElapsed(&g.tr, elapsed, errored)
}

// getWalkOf leases a pooled GET walk for a request with context ctx to uri.
// Only its fields are reset: its trace recorder is StartFrom's to reset, and
// a 48-span recorder zeroed per request costs a routed GET more than the
// pool round trip.
func (s *ShardRouter) getWalkOf(ctx context.Context, uri string) *getWalk {
	g, _ := s.walks.Get().(*getWalk)
	if g == nil {
		g = new(getWalk)
	}
	g.s, g.ctx, g.uri = s, ctx, uri
	g.prefWalk, g.launched = prefWalk{}, 0
	return g
}

// putWalk returns a GET walk to the pool, holding nothing of its request.
func (s *ShardRouter) putWalk(g *getWalk) {
	g.ctx, g.last = nil, getResult{}
	s.walks.Put(g)
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
