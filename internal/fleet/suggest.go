package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The GET /suggest hop. One request walks its preference list (getWalk.run)
// by the failover policy's actions (policy.go): for each attempt the step
// picks, build the attempt's context (attemptCtx: deadline and trace header
// as values), open the attempt span and exchange; settle the outcome through
// the step, and back off, respond, abandon or give up as it says.
//
// Attempts run inline on the request goroutine unless a hedge is armed —
// hedging on, and at least two replicas to race: then the first attempt runs
// on its own goroutine, raced against the hedge timer and then against the
// hedge; whatever is left of the list after that race runs inline again. The
// goroutine, the channel, the timer and the context.WithCancel that can stop
// a loser are made only then: an inline attempt cannot outlive the request,
// so it derives no context and arms no timer, and its deadline is the
// transport's to enforce (Transport.Exchange). A race's loser settles
// through the step like any other attempt, on a copy of the walk.
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

// getAttempt is one sent GET attempt, as the request goroutine tracks it:
// the step's try action, its span and, raced, the cancel that stops it.
type getAttempt struct {
	action
	span   int
	cancel context.CancelFunc
}

// getResult is what an attempt's exchange came back with. body is the pooled
// response buffer (see getBuf); whoever consumes the result returns it.
type getResult struct {
	slot   int // raced only: which of the two raced attempts this is
	shard  int
	status int
	body   *[]byte
	err    error
	out    attemptOutcome
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
	hedgeWon bool // the answer came from the hedge

	last getResult // the answer, or the last failed attempt for the 502 message (its body is back in the pool)
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
	g.run(w, hedge)
}

// run walks the preference list by the policy step's actions and answers
// the request. With a hedge armed (hedge > 0) the first attempt is raced:
// it runs on a goroutine of its own, the hedge timer fires the step's hedge
// beside it, and results come back on a channel; once nothing of the race
// is in flight, or the walk is over, the rest runs inline. A loser still in
// flight when the walk ends is cancelled, its span closed here, and its
// result settled on a drain goroutine, through the step on a copy of the
// walk.
func (g *getWalk) run(w http.ResponseWriter, hedge time.Duration) {
	s := g.s
	var (
		race  [2]getAttempt    // the raced attempts, by slot: the first and its hedge
		resCh chan getResult   // the race's results; nil while attempts run inline
		tm    timer            // the hedge timer
		fire  <-chan time.Time // tm's channel, until it fires
	)
	now := g.tr.Started()
	a := g.next(s.ready(g.ctx, action{}))
	for {
		switch a.kind {
		case actBackoff:
			a = g.next(s.ready(g.ctx, a))
			now = obs.Now()
		case actTry:
			at, actx := g.begin(a, now)
			if hedge == 0 {
				a = g.settle(&at, s.exchangeGET(actx, at.shard, g.uri, now))
				continue
			}
			if resCh == nil {
				resCh = make(chan getResult, len(race)) // one send per raced attempt
				tm = s.clk.NewTimer(hedge)
				fire = tm.C()
			}
			slot := 0
			if at.flags&flagHedge != 0 {
				slot = 1
				s.hedgeWait.Record(hedge.Microseconds())
			}
			race[slot] = g.launch(at, actx, slot, now, resCh)
			a = action{}
		case actWait:
			var res getResult
			select {
			case res = <-resCh:
			case <-fire:
				fire, now = nil, obs.Now()
				a = g.next(event{kind: evHedge})
				continue
			}
			at := &race[res.slot]
			at.cancel()
			if a = g.settle(at, res); a.kind == actWait {
				continue // the other raced attempt is still out
			}
			if g.flying > 0 {
				// The walk is over with the other raced attempt still out: it
				// is cancelled and its span closed here, on the request
				// goroutine; its result, when it lands, settles on a drain.
				loser := race[1-res.slot]
				loser.cancel()
				g.tr.EndAt(loser.span, g.tr.Offset(res.end), "cancelled")
				go s.drainLoser(g.prefWalk, loser.flags&flagClaim != 0, resCh)
			}
			tm.Stop()
			hedge = 0 // what is left of the list runs inline
		case actRespond:
			g.respond(w)
			return
		case actAbandon:
			g.abandon(w)
			return
		default:
			g.fail(w)
			return
		}
	}
}

// drainLoser settles a race's loser after the walk is over, through the step
// on w, a copy of the walk — the walk itself goes back to the pool with the
// request. It never touches the trace: the loser's span was closed on the
// request goroutine.
func (s *ShardRouter) drainLoser(w prefWalk, claim bool, resCh <-chan getResult) {
	res := <-resCh
	s.carry(w.step(nil, event{kind: evSettled, out: res.out, shard: res.shard, claim: claim}))
	s.putBuf(res.body)
}

// next asks the step what event e calls for under a round view of the
// breakers of its own — a GET attempt, or its hedge, is a round alone — hands
// back the probe claims its pick did not use and carries the counters.
func (g *getWalk) next(e event) action {
	var marks [MaxReplicas]viewMark
	v := roundView{s: g.s, tr: &g.tr, marks: marks[:]}
	a := g.step(&v, e)
	v.release()
	g.s.carry(a)
	return a
}

// launch runs a begun attempt's exchange on a goroutine of its own, which
// reports to resCh. A raced attempt can lose, so — unlike an inline one — it
// runs under a cancellable child of its attempt context. The goroutine is
// handed copies: it must not reach the walk state, which stays on the request
// goroutine's stack.
func (g *getWalk) launch(at getAttempt, actx *attemptCtx, slot int, now time.Time, resCh chan<- getResult) getAttempt {
	cctx, cancel := context.WithCancel(actx)
	at.cancel = cancel
	s, uri := g.s, g.uri
	go func() {
		res := s.exchangeGET(cctx, at.shard, uri, now)
		res.slot = slot
		resCh <- res
	}()
	return at
}

// begin opens the attempt the step picked (a), starting at now: the
// attempt's context (the deadline counted from now, the trace header) and
// its trace span.
func (g *getWalk) begin(a action, now time.Time) (getAttempt, *attemptCtx) {
	if a.flags&flagHedge != 0 {
		g.tr.Event("hedge-fire", a.shard, "fired")
	}
	span := g.tr.BeginAt("shard", g.tr.Offset(now))
	g.tr.SetShard(span, a.shard)
	return getAttempt{action: a, span: span}, g.s.newAttemptCtx(g.ctx, g.tr.HeaderValue(), now)
}

// exchangeGET performs one attempt's exchange, begun at start, into a pooled
// buffer, stamps when it returned, classifies the outcome under the
// attempt's context — a raced attempt's is cancelled only with the client,
// or once the walk no longer needs it — and records the latency of an
// answer. It touches no request state, so it runs on the request goroutine
// or on a raced attempt's own alike.
func (s *ShardRouter) exchangeGET(ctx context.Context, shard int, uri string, start time.Time) getResult {
	buf := s.getBuf()
	status, body, err := s.tr.Exchange(ctx, shard, http.MethodGet, uri, nil, *buf)
	end := obs.Now()
	out := outcomeOf(ctx, status, err)
	if out == attemptAnswered {
		s.attemptLat.Record(end.Sub(start).Microseconds())
	}
	*buf = body
	return getResult{shard: shard, status: status, body: buf, err: err, out: out, end: end}
}

// settle tells the step how a consumed attempt ended, carries the booking
// and counters, and records the outcome on the trace, on the request
// goroutine. It keeps an answer for respond and the last failure for fail.
func (g *getWalk) settle(at *getAttempt, res getResult) action {
	s, out := g.s, res.out
	a := g.step(nil, event{kind: evSettled, out: out, shard: res.shard, claim: at.flags&flagClaim != 0})
	s.carry(a)
	label := out.String()
	if out == attemptAnswered && at.flags&flagHedge != 0 {
		label = "hedge-won"
		s.hedgesWon.Add(1)
		g.hedgeWon = true
	}
	g.tr.EndAt(at.span, g.tr.Offset(res.end), label)
	if out != attemptCancelled {
		g.last = res
	}
	if a.kind != actRespond {
		s.putBuf(res.body)
	}
	return a
}

// respond writes the answer.
func (g *getWalk) respond(w http.ResponseWriter) {
	s, h, res := g.s, w.Header(), g.last
	h["X-Serve-Shard"] = s.shardHeader[res.shard]
	h["X-Serve-Attempts"] = s.attemptHeader[g.attempts()-1]
	if g.hedgeWon {
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
	msg := fmt.Sprintf("all %d replica(s) failed; shard %d last: ", g.attempts(), g.last.shard)
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
	g.prefWalk, g.hedgeWon = prefWalk{}, false
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
	d := min(max(time.Duration(s.attemptLat.Quantile(0.99))*time.Microsecond, 200*time.Microsecond), 50*time.Millisecond)
	s.hedgeCache.Store(int64(d))
	return d
}
