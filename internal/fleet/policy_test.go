package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// Per-attempt outcomes a scriptTransport answers with.
const (
	scriptOK     = iota // 200 with a result
	scriptRefuse        // 400: the shard refuses what the client sent
	script503           // the shard is overloaded
	scriptErr           // transport error
	scriptCancel        // the client goes away mid-exchange
	numScriptOutcomes
)

var scriptNames = [...]string{"200", "400", "503", "err", "cancel"}

// scriptTransport answers the router's exchanges from a script, one outcome
// per attempt whichever shard it goes to, and records the shards asked. An
// exchange whose context is done on entry is refused, as LoopbackTransport
// refuses it, and counted apart. A request's attempts run one at a time (one-item
// batches, and a hedge that never fires), so it needs no lock.
type scriptTransport struct {
	script  []int
	called  []int
	refused int                // exchanges refused on entry: the client had left
	cancel  context.CancelFunc // the request's
}

func (t *scriptTransport) Shards() int { return 3 }

func (t *scriptTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	if ctx.Err() != nil {
		t.refused++
		return 0, respBuf, ctx.Err()
	}
	t.called = append(t.called, shard)
	if len(t.called) > len(t.script) {
		return 0, respBuf, errors.New("script exhausted")
	}
	switch t.script[len(t.called)-1] {
	case scriptOK:
		if method == http.MethodGet {
			return http.StatusOK, append(respBuf, `{"suggestions":[]}`...), nil
		}
		return http.StatusOK, append(respBuf, "{\"index\":0,\"result\":{}}\n"...), nil
	case scriptRefuse:
		return http.StatusBadRequest, append(respBuf, `{"error":{"code":"bad_request","message":"requests[0]: refused"}}`...), nil
	case script503:
		return http.StatusServiceUnavailable, append(respBuf, `{"error":{"code":"unavailable","message":"overloaded"}}`...), nil
	case scriptErr:
		return 0, respBuf, errors.New("connection refused")
	}
	t.cancel()
	return 0, respBuf, ctx.Err()
}

// Breaker states a case starts a shard in.
const (
	startHealthy = iota
	startCooling // ejected, cool-down running
	startElapsed // ejected, cool-down elapsed: the next check claims the probe
	startProbing // another request's half-open probe is in flight
	numStartStates
)

var startNames = [...]string{"healthy", "cooling", "elapsed", "probing"}

// breakerSnap is everything a breaker holds.
type breakerSnap struct {
	state, consec                int32
	openedAt                     int64
	successes, failures, ejected uint64
}

func snapBreaker(h *shardHealth) breakerSnap {
	return breakerSnap{h.state.Load(), h.consecFails.Load(), h.openedAt.Load(), h.successes.Load(), h.failures.Load(), h.ejections.Load()}
}

// setBreaker puts h in start state st. A healthy breaker is one failure
// short of ejection, so a script's single failure ejects it.
func setBreaker(h *shardHealth, st int, now time.Time) {
	state, opened, consec := healthClosed, int64(0), int32(FailThreshold-1)
	switch st {
	case startCooling:
		state, opened, consec = healthOpen, now.UnixNano(), 0
	case startElapsed:
		state, opened, consec = healthOpen, now.Add(-2*ProbeAfter).UnixNano(), 0
	case startProbing:
		state, opened, consec = healthHalfOpen, now.Add(-2*ProbeAfter).UnixNano(), 0
	}
	h.state.Store(state)
	h.openedAt.Store(opened)
	h.consecFails.Store(consec)
	h.successes.Store(0)
	h.failures.Store(0)
	h.ejections.Store(0)
}

// policyScripts enumerates every complete outcome script of up to R
// attempts: failures (503, transport error) go on to a next attempt until R
// have been made, anything else ends the request.
func policyScripts(R int) [][]int {
	var out [][]int
	var grow func(prefix []int)
	grow = func(prefix []int) {
		for o := 0; o < numScriptOutcomes; o++ {
			s := append(append([]int(nil), prefix...), o)
			if (o == script503 || o == scriptErr) && len(s) < R {
				grow(s)
				continue
			}
			out = append(out, s)
		}
	}
	grow(nil)
	return out
}

// policyRun is what one request did to the router.
type policyRun struct {
	called                        []int
	status                        int
	start, breakers               [3]breakerSnap // before and after
	retries, failovers, cancelled uint64
	failoverHeader                string
}

// policyDrivers are the four ways a request drives the failover policy: the
// GET walk, and a one-item batch's rounds, buffered and streamed, and a GET
// with a hedge armed that never fires (HedgeAfter an hour on a virtual clock
// nobody advances), whose first attempt therefore runs raced on a goroutine
// of its own and settles through the race.
var policyDrivers = [...]struct {
	name, method, target string
	hedge                time.Duration
}{
	{"get", http.MethodGet, "/suggest?q=o2", 0},
	{"batch", http.MethodPost, "/suggest/batch", 0},
	{"stream", http.MethodPost, "/suggest/batch?stream=1", 0},
	{"hedged", http.MethodGet, "/suggest?q=o2", time.Hour},
}

// policyRouters builds one router per policy driver at replication R, all
// over tp.
func policyRouters(t *testing.T, tp *scriptTransport, R int) (routers [len(policyDrivers)]*ShardRouter) {
	t.Helper()
	for d, drv := range policyDrivers {
		s, err := NewShardRouterOpts(NewRing(3, 0), tp, RouterOptions{Replicas: R, HedgeAfter: drv.hedge})
		if err != nil {
			t.Fatal(err)
		}
		routers[d] = s
	}
	return routers
}

// runPolicyCase resets the router's breakers to starts, its clock to a new
// virtual one and its jitter to one seed, and serves one request through
// driver d with the transport answering from script.
func runPolicyCase(s *ShardRouter, tp *scriptTransport, starts [3]int, script []int, d int) policyRun {
	var run policyRun
	clk := NewVirtualClock()
	UseClock(s, clk, 1)
	now := clk.Now()
	for sh := range s.health {
		setBreaker(&s.health[sh], starts[sh], now)
		run.start[sh] = snapBreaker(&s.health[sh])
	}
	retries, failovers, cancelled := s.retries.Load(), s.failovers.Load(), s.cancelled.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tp.script, tp.called, tp.refused, tp.cancel = script, tp.called[:0], 0, cancel
	drv := policyDrivers[d]
	req := httptest.NewRequest(drv.method, drv.target, strings.NewReader(`{"requests":[{"context":["o2"]}]}`)).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	run.called = append([]int(nil), tp.called...)
	run.status = rr.Code
	run.retries = s.retries.Load() - retries
	run.failovers = s.failovers.Load() - failovers
	run.cancelled = s.cancelled.Load() - cancelled
	run.failoverHeader = rr.Header().Get("X-Serve-Failovers")
	for sh := range s.health {
		run.breakers[sh] = snapBreaker(&s.health[sh])
	}
	return run
}

// TestPolicyExhaustive drives the real ShardRouter through every combination
// of replication factor R ∈ {1, 2, 3} over three shards, start state per
// shard breaker (healthy, ejected cooling, ejected with the cool-down
// elapsed, probing) and per-attempt outcome script drawn from {200, 400
// refusal, 503, transport error, client cancel}, each through the GET walk,
// a buffered and a streamed one-item batch and a GET whose hedge is armed.
// After every request the policy's invariants must hold, and the four
// drivers must agree on the shards tried, the breakers left behind and every
// counter.
func TestPolicyExhaustive(t *testing.T) {
	cases := 0
	for R := 1; R <= 3; R++ {
		tp := &scriptTransport{}
		routers := policyRouters(t, tp, R)
		prefs := routers[0].ring.LookupN(hashQueryContext("q=o2"), R, nil)
		scripts := policyScripts(R)
		for code := 0; code < numStartStates*numStartStates*numStartStates; code++ {
			starts := [3]int{code % 4, code / 4 % 4, code / 16}
			for _, script := range scripts {
				cases++
				name := policyCaseName(R, starts, script)
				var runs [len(policyDrivers)]policyRun
				for d, drv := range policyDrivers {
					runs[d] = runPolicyCase(routers[d], tp, starts, script, d)
					checkPolicyRun(t, name+" "+drv.name, runs[d], R, prefs, starts, script, drv.name)
				}
				for d := 1; d < len(runs); d++ {
					if !agree(runs[0], runs[d]) {
						t.Fatalf("%s: %s and %s disagree:\n%+v\n%+v", name, policyDrivers[0].name, policyDrivers[d].name, runs[0], runs[d])
					}
				}
				if runs[0].status != runs[1].status || runs[0].status != runs[3].status {
					t.Fatalf("%s: GET answered %d, buffered batch %d, hedged GET %d", name, runs[0].status, runs[1].status, runs[3].status)
				}
			}
		}
	}
	t.Logf("%d cases, %d requests", cases, cases*len(policyDrivers))
}

func policyCaseName(R int, starts [3]int, script []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "R=%d starts=[%s %s %s] script=[", R, startNames[starts[0]], startNames[starts[1]], startNames[starts[2]])
	for i, o := range script {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(scriptNames[o])
	}
	b.WriteByte(']')
	return b.String()
}

func count(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// agree compares two drivers' runs: shards tried, counters and breakers,
// ejection stamps included — each run starts on a new virtual clock under
// one jitter seed, so the drivers' backoffs and failures fall at the same
// instants.
func agree(a, b policyRun) bool {
	return reflect.DeepEqual(a.called, b.called) && a.retries == b.retries && a.failovers == b.failovers &&
		a.cancelled == b.cancelled && a.breakers == b.breakers
}

// checkPolicyRun asserts the policy's invariants on one request.
func checkPolicyRun(t *testing.T, name string, run policyRun, R int, prefs []int, starts [3]int, script []int, driver string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: "+format+"\nrun: %+v", append([]any{name}, append(args, run)...)...)
	}
	// The shards tried are the pick rule's, one per scripted outcome: the
	// first untried preference whose breaker admits traffic, else the first
	// untried one. No breaker changes but those of the shards tried.
	if len(run.called) != len(script) || len(run.called) > R {
		fail("%d attempts for a script of %d at R=%d", len(run.called), len(script), R)
	}
	var tried [3]bool
	for i, sh := range run.called {
		want := -1
		for _, p := range prefs {
			if tried[p] {
				continue
			}
			if want < 0 {
				want = p
			}
			if starts[p] == startHealthy || starts[p] == startElapsed {
				want = p
				break
			}
		}
		if sh != want {
			fail("attempt %d went to shard %d, the pick rule says %d", i, sh, want)
		}
		tried[sh] = true
	}
	failures := uint64(0)
	for i, sh := range run.called {
		end, was := run.breakers[sh], run.start[sh]
		switch script[i] {
		case scriptCancel:
			if end != was {
				fail("a cancelled attempt moved shard %d's breaker: %+v → %+v", sh, was, end)
			}
		case scriptOK, scriptRefuse:
			if end.state != healthClosed || end.successes != was.successes+1 || end.failures != was.failures {
				fail("an answer from shard %d booked %+v → %+v, want one success", sh, was, end)
			}
		default:
			failures++
			if end.failures != was.failures+1 || end.successes != was.successes {
				fail("a failure on shard %d booked %+v → %+v, want one failure", sh, was, end)
			}
		}
	}
	booked := uint64(0)
	for sh := range run.breakers {
		end, was := run.breakers[sh], run.start[sh]
		booked += end.failures - was.failures
		if end.state == healthHalfOpen && was.state != healthHalfOpen {
			fail("shard %d left probing", sh)
		}
		if !tried[sh] && end != was {
			fail("untried shard %d's breaker moved: %+v → %+v", sh, was, end)
		}
	}
	if booked != failures {
		fail("%d failures booked for %d failed attempts", booked, failures)
	}
	last := script[len(script)-1]
	if run.status == http.StatusBadGateway && len(run.called) != R {
		fail("502 after %d of %d replicas", len(run.called), R)
	}
	if (last == script503 || last == scriptErr) && driver != "stream" && run.status != http.StatusBadGateway {
		fail("every replica failed, answered %d", run.status)
	}
	if run.retries != uint64(len(run.called)-1) {
		fail("retries = %d after %d attempts", run.retries, len(run.called))
	}
	nonPrimary := (last == scriptOK || last == scriptRefuse) && run.called[len(run.called)-1] != prefs[0]
	if run.failovers != count(nonPrimary) {
		fail("failovers = %d, want 1 exactly when a non-primary answered", run.failovers)
	}
	if run.cancelled != count(last == scriptCancel) {
		fail("client_cancelled = %d, want 1 exactly when the client went away", run.cancelled)
	}
	if driver == "batch" && run.status == http.StatusOK && run.failoverHeader != fmt.Sprint(run.failovers) && (run.failoverHeader != "" || run.failovers != 0) {
		fail("X-Serve-Failovers = %q with %d failovers booked", run.failoverHeader, run.failovers)
	}
}

// TestPolicyBatchCounters pins, by name, the two ways the batch rounds used
// to book counters differently from the GET walk: a one-item batch that
// fails at R=1 moved no work and books no retry, and an item a backup
// answers is a failover in /v1/metrics, in router_failovers_total and in
// X-Serve-Failovers alike.
func TestPolicyBatchCounters(t *testing.T) {
	const body = `{"requests":[{"context":["o2"]}]}`
	for _, tc := range []struct {
		name               string
		replicas           int
		script             []int
		status             int
		retries, failovers uint64
		header             string
	}{
		{"R=1 failed batch books no retry", 1, []int{scriptErr}, http.StatusBadGateway, 0, 0, ""},
		{"R=2 primary down books the item's failover", 2, []int{scriptErr, scriptOK}, http.StatusOK, 1, 1, "1"},
	} {
		tp := &scriptTransport{script: tc.script, cancel: func() {}}
		s, err := NewShardRouterOpts(NewRing(3, 0), tp, RouterOptions{Replicas: tc.replicas})
		if err != nil {
			t.Fatal(err)
		}
		UseClock(s, NewVirtualClock(), 1)
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/suggest/batch", strings.NewReader(body)))
		if rr.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rr.Code, tc.status, rr.Body)
		}
		if got := s.retries.Load(); got != tc.retries {
			t.Errorf("%s: retries = %d, want %d", tc.name, got, tc.retries)
		}
		if got := s.failovers.Load(); got != tc.failovers {
			t.Errorf("%s: failovers = %d, want %d", tc.name, got, tc.failovers)
		}
		fams, err := obs.ParsePrometheus(s.Obs().AppendPrometheus(nil))
		if err != nil {
			t.Fatal(err)
		}
		if f := fams["router_failovers_total"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value != float64(tc.failovers) {
			t.Errorf("%s: router_failovers_total = %+v, want %d", tc.name, f, tc.failovers)
		}
		if got := rr.Header().Get("X-Serve-Failovers"); got != tc.header {
			t.Errorf("%s: X-Serve-Failovers = %q, want %q", tc.name, got, tc.header)
		}
	}
}

// backoffTap counts, at each exchange, the backoffs the clock has slept.
type backoffTap struct {
	*scriptTransport
	clk   *VirtualClock
	slept []int
}

func (t *backoffTap) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	t.slept = append(t.slept, len(t.clk.Sleeps()))
	return t.scriptTransport.Exchange(ctx, shard, method, path, body, respBuf)
}

// TestBackoffBeforeEachRetryRound drives a GET and a one-item batch at R = 3
// whose first two replicas fail, on a virtual clock: each sleeps one backoff
// before each retry round and none before the first attempt, round k's lies
// in [d/2, 3d/2) for d = backoffBase << (k-1), and under one seed the two
// drivers sleep the same sequence.
func TestBackoffBeforeEachRetryRound(t *testing.T) {
	var seqs [2][]time.Duration
	for d, drv := range policyDrivers[:2] {
		clk := NewVirtualClock()
		tp := &backoffTap{scriptTransport: &scriptTransport{script: []int{scriptErr, scriptErr, scriptOK}, cancel: func() {}}, clk: clk}
		s, err := NewShardRouterOpts(NewRing(3, 0), tp, RouterOptions{Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		UseClock(s, clk, 7)
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(drv.method, drv.target, strings.NewReader(`{"requests":[{"context":["o2"]}]}`)))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", drv.name, rr.Code, rr.Body)
		}
		if !reflect.DeepEqual(tp.slept, []int{0, 1, 2}) {
			t.Fatalf("%s: backoffs slept before each attempt = %v, want [0 1 2]", drv.name, tp.slept)
		}
		seqs[d] = clk.Sleeps()
		for k, got := range seqs[d] {
			if d := backoffBase << k; got < d/2 || got >= d+d/2 {
				t.Errorf("%s: round %d backed off %v, want [%v, %v)", drv.name, k+1, got, d/2, d+d/2)
			}
		}
	}
	if !reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Fatalf("one seed, two backoff sequences: %s %v, %s %v", policyDrivers[0].name, seqs[0], policyDrivers[1].name, seqs[1])
	}
}

// TestNoAttemptAfterClientLeavesDuringBackoff is the regression test for the
// attempt after a departed client: at R = 2 the primary fails, the router
// backs off, and the client leaves during the backoff. The request must make
// no second attempt — no pick, no retry counted, no exchange, no span — and
// be answered as abandoned: 499 (a GET, hedged or not, and a buffered batch)
// or nothing more written (a stream), client_cancelled 1, and only the
// primary's failure booked. It used to pick the secondary, count a retry and
// call the transport, which refused the done context on entry.
func TestNoAttemptAfterClientLeavesDuringBackoff(t *testing.T) {
	for d, drv := range policyDrivers {
		tp := &scriptTransport{script: []int{scriptErr, scriptOK}}
		s := policyRouters(t, tp, 2)[d]
		ctx, cancel := context.WithCancel(context.Background())
		tp.cancel = cancel
		clk := NewVirtualClock()
		clk.onSleep = cancel // the client leaves while the router backs off
		UseClock(s, clk, 1)
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(drv.method, drv.target, strings.NewReader(`{"requests":[{"context":["o2"]}]}`))
		s.ServeHTTP(rr, req.WithContext(ctx))
		cancel()

		if len(tp.called) != 1 || tp.refused != 0 {
			t.Errorf("%s: exchanged with %v and refused %d on entry, want one exchange and none refused", drv.name, tp.called, tp.refused)
		}
		if len(clk.Sleeps()) != 1 {
			t.Errorf("%s: backed off %d times, want once", drv.name, len(clk.Sleeps()))
		}
		want := statusClientClosedRequest
		if drv.name == "stream" {
			want = http.StatusOK // committed before the first round
		}
		if rr.Code != want || (drv.name == "stream" && rr.Body.Len() != 0) {
			t.Errorf("%s: answered %d %q, want %d and nothing written after the header", drv.name, rr.Code, rr.Body, want)
		}
		if r, c := s.retries.Load(), s.cancelled.Load(); r != 0 || c != 1 {
			t.Errorf("%s: retries = %d, client_cancelled = %d, want 0 and 1", drv.name, r, c)
		}
		for sh := range s.health {
			h := snapBreaker(&s.health[sh])
			if want := count(len(tp.called) > 0 && sh == tp.called[0]); h.failures != want || h.successes != 0 {
				t.Errorf("%s: shard %d booked %d failures and %d successes, want %d and 0", drv.name, sh, h.failures, h.successes, want)
			}
		}
		spans := 0
		for _, v := range s.tracer.Snapshot(0, false, 0) {
			for _, sp := range v.Spans {
				if sp.Name == "shard" || sp.Name == "shard-batch" {
					spans++
				}
			}
		}
		if spans != 1 {
			t.Errorf("%s: %d attempt spans, want 1", drv.name, spans)
		}
	}
}

// stepDepth is how many events TestPolicyStepExhaustive sends a walk.
const stepDepth = 8

// stepViewNames are the start states' initials, as a step case spells them.
const stepViewNames = "hcep" // healthy, cooling, elapsed, probing

// Step case tokens: "r" a round may start, "g" a round may start but the
// client has left, "h" the hedge timer fired, and "<slot><o>" the attempt in
// flight slot settled with outcome o.
var (
	stepOutcomes   = [...]attemptOutcome{attemptAnswered, attemptCancelled, attemptError, attemptUpstream5xx}
	stepOutcomeTok = "ace5" // answered, cancelled, transport error, upstream 5xx
	stepSettleToks = [2][4]string{{"0a", "0c", "0e", "05"}, {"1a", "1c", "1e", "15"}}
)

// stepAttempt is an attempt in flight, as the simulated driver tracks it.
type stepAttempt struct {
	shard        int
	claim, hedge bool
}

// stepSim is a driver of the policy step with no router, goroutine or clock:
// it sends one walk events, carries out its actions by bookkeeping alone and
// checks every action against the policy's invariants. It is a value: the
// exhaustive search copies it at every branch.
type stepSim struct {
	R         int
	views     [3]int // every round's view of shard sh reads start state views[sh]
	w         prefWalk
	fly       [2]stepAttempt // in flight
	nfly      int
	owed      bool // the driver owes the step a ready: at the start, and after a backoff
	backedOff bool // a backoff came and no round has started since
	done      bool // the walk responded, abandoned or gave up
	hedges    int  // hedge-timer events sent
	evs       [stepDepth]string
	nev       int
}

func newStepSim(R int, views [3]int) stepSim {
	sim := stepSim{R: R, views: views, owed: true}
	sim.w.n = R
	for k := range R {
		sim.w.prefs[k] = k
	}
	return sim
}

// String spells the case in the form stepRegressions replays.
func (sim *stepSim) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "R=%d views=", sim.R)
	for _, st := range sim.views[:sim.R] {
		b.WriteByte(stepViewNames[st])
	}
	b.WriteString(" events=" + strings.Join(sim.evs[:sim.nev], " "))
	return b.String()
}

// next lists the events a driver could send now: a ready when one is owed,
// the hedge timer (at most twice: a second firing must change nothing), and
// the settling of each attempt in flight with each outcome.
func (sim *stepSim) next(buf []string) []string {
	if sim.owed {
		buf = append(buf, "r", "g")
	}
	if sim.hedges < 2 {
		buf = append(buf, "h")
	}
	for i := range sim.nfly {
		buf = append(buf, stepSettleToks[i][:]...)
	}
	return buf
}

// do sends the event tok to the walk and checks the action that comes back.
func (sim *stepSim) do(tok string) error {
	if sim.nev == len(sim.evs) {
		return fmt.Errorf("more than %d events", len(sim.evs))
	}
	sim.evs[sim.nev] = tok
	sim.nev++
	var marks [3]viewMark
	for sh := range marks {
		st := sim.views[sh]
		marks[sh] = viewMark{shard: sh, avail: st == startHealthy || st == startElapsed, claim: st == startElapsed}
	}
	v := roundView{marks: marks[:], n: len(marks)}
	wasDone, attempts := sim.done, sim.w.attempts()
	var a action
	switch tok {
	case "r", "g":
		if !sim.owed {
			return fmt.Errorf("ready sent when none was owed")
		}
		sim.owed = false
		e := event{kind: evReady}
		if tok == "g" {
			e.kind = evGone
		}
		a = sim.w.step(&v, e)
		switch {
		case tok == "g" && a.kind != actAbandon:
			return fmt.Errorf("the client left and the step answered %+v, want abandon", a)
		case tok == "r" && a.kind != actTry:
			return fmt.Errorf("a round may start and the step answered %+v, want a try", a)
		case a.kind == actTry && (a.flags&flagRetry != 0) != (attempts > 0):
			return fmt.Errorf("try after %d attempts has flags %07b", attempts, a.flags)
		case a.flags&flagRetry != 0 && !sim.backedOff:
			return fmt.Errorf("a retry with no backoff before it")
		}
		sim.backedOff = false
	case "h":
		sim.hedges++
		a = sim.w.step(&v, event{kind: evHedge})
		hedgeable := !sim.done && sim.nfly == 1 && attempts == 1 && sim.R > 1
		if (a.kind == actTry) != hedgeable || (a.kind != actTry && a.kind != actWait) {
			return fmt.Errorf("hedge timer with %d in flight after %d attempts (over %v): step answered %+v", sim.nfly, attempts, sim.done, a)
		}
		if a.kind == actTry && a.flags&(flagHedge|flagRetry) != flagHedge {
			return fmt.Errorf("the hedge timer's attempt %+v is not a hedge alone", a)
		}
	default:
		slot, out := int(tok[0]-'0'), stepOutcomes[strings.IndexByte(stepOutcomeTok, tok[1])]
		at := sim.fly[slot]
		sim.fly[slot] = sim.fly[sim.nfly-1]
		sim.nfly--
		a = sim.w.step(nil, event{kind: evSettled, out: out, shard: at.shard, claim: at.claim})
		if err := checkStepBooking(a, at, out, wasDone); err != nil {
			return err
		}
		if err := sim.checkSettled(a, at, out, wasDone); err != nil {
			return err
		}
	}
	return sim.carryOut(a, &v, marks[:], wasDone)
}

// checkStepBooking holds a settled attempt's booking to the breaker rules: an
// answer closes the breaker; a cancel, a sub-5xx answer or a hedge loser's
// failure books no failure; every other failure books exactly one; and a
// probe claim is booked or handed back by the attempt that carried it, and
// never by one that did not.
func checkStepBooking(a action, at stepAttempt, out attemptOutcome, loser bool) error {
	want := bookFailure
	switch {
	case out == attemptAnswered:
		want = bookSuccess
	case out == attemptCancelled || loser:
		want = 0
		if at.claim {
			want = bookRelease
		}
	}
	if a.flags&bookMask != want || a.shard != at.shard {
		return fmt.Errorf("attempt %+v settled %v (walk over %v) booked %03b on shard %d, want %03b on %d", at, out, loser, a.flags&bookMask, a.shard, want, at.shard)
	}
	return nil
}

// checkSettled holds what follows a settled attempt to the policy: a walk
// that is over only books; an answer is passed on, a failover when a
// non-primary gave it; a cancel abandons; a failure waits for the other
// raced attempt, backs off while a preference is untried, and gives up only
// when none is.
func (sim *stepSim) checkSettled(a action, at stepAttempt, out attemptOutcome, wasDone bool) error {
	want := actGiveUp
	switch {
	case wasDone:
		want = actWait
	case out == attemptAnswered:
		want = actRespond
	case out == attemptCancelled:
		want = actAbandon
	case sim.nfly > 0:
		want = actWait
	case sim.w.attempts() < sim.R:
		want = actBackoff
	}
	if a.kind != want {
		return fmt.Errorf("attempt %+v settled %v with %d in flight after %d attempts: action %+v, want kind %d", at, out, sim.nfly, sim.w.attempts(), a, want)
	}
	if (a.flags&flagFailover != 0) != (a.kind == actRespond && at.shard != sim.w.prefs[0]) {
		return fmt.Errorf("answer from shard %d: flags %07b", at.shard, a.flags)
	}
	if a.kind == actBackoff && a.k != sim.w.attempts() {
		return fmt.Errorf("backoff before round %d after %d attempts", a.k, sim.w.attempts())
	}
	return nil
}

// carryOut does what the simulated driver does with action a — the round's
// view v hands back the claims no pick used — and checks what holds of every
// action: nothing but waiting after the walk is over, the pick rule, at most
// two attempts in flight, counters only on the actions they belong to.
func (sim *stepSim) carryOut(a action, v *roundView, marks []viewMark, wasDone bool) error {
	if wasDone && a.kind != actWait {
		return fmt.Errorf("action %+v after the walk was over", a)
	}
	if a.flags&flagRetry != 0 && a.flags&flagHedge != 0 {
		return fmt.Errorf("a hedge counted as a retry: %+v", a)
	}
	if a.kind != actTry && a.flags&(flagRetry|flagHedge|flagClaim) != 0 || a.kind != actRespond && a.flags&flagFailover != 0 {
		return fmt.Errorf("counters on the wrong action: %+v", a)
	}
	if b := a.flags & bookMask; b&(b-1) != 0 {
		return fmt.Errorf("more than one booking: %+v", a)
	}
	for _, m := range marks {
		if m.used && (a.kind != actTry || m.shard != a.shard) {
			return fmt.Errorf("the round's view sent work to shard %d, the action is %+v", m.shard, a)
		}
	}
	switch a.kind {
	case actTry:
		want := -1 // the first untried preference the view finds available, else the first untried one
		for k := range sim.R {
			sh := sim.w.prefs[k]
			if sim.w.tried&(1<<k) != 0 && sh != a.shard {
				continue
			}
			if want < 0 {
				want = sh
			}
			if marks[sh].avail {
				want = sh
				break
			}
		}
		if a.shard != want {
			return fmt.Errorf("try went to shard %d, the pick rule says %d", a.shard, want)
		}
		claim := a.flags&flagClaim != 0
		if claim != marks[a.shard].claim {
			return fmt.Errorf("try to shard %d carries claim %v, the view's is %v", a.shard, claim, marks[a.shard].claim)
		}
		if sim.nfly == len(sim.fly) {
			return fmt.Errorf("a third attempt in flight")
		}
		sim.fly[sim.nfly] = stepAttempt{shard: a.shard, claim: claim, hedge: a.flags&flagHedge != 0}
		sim.nfly++
	case actBackoff:
		if sim.nfly != 0 || sim.w.attempts() == 0 {
			return fmt.Errorf("backoff with %d in flight after %d attempts", sim.nfly, sim.w.attempts())
		}
		sim.owed, sim.backedOff = true, true
	case actGiveUp:
		if int(sim.w.tried) != 1<<sim.R-1 {
			return fmt.Errorf("gave up with preferences untried (tried %03b)", sim.w.tried)
		}
		fallthrough
	case actRespond, actAbandon:
		sim.done = true
	}
	return nil
}

// replayStepCase runs one case spelled as stepSim.String spells it.
func replayStepCase(c string) error {
	head, evs, ok := strings.Cut(c, " events=")
	var R int
	var views string
	if _, err := fmt.Sscanf(head, "R=%d views=%s", &R, &views); err != nil || !ok || len(views) != R {
		return fmt.Errorf("bad case %q", c)
	}
	var starts [3]int
	for sh := range views {
		starts[sh] = strings.IndexByte(stepViewNames, views[sh])
	}
	sim := newStepSim(R, starts)
	for _, tok := range strings.Fields(evs) {
		if err := sim.do(tok); err != nil {
			return err
		}
	}
	return nil
}

// stepRegressions are step cases replayed before the search: each pins a
// behaviour by name, and a case the search fails on is pasted here.
var stepRegressions = []string{
	"R=2 views=hh events=r 0e g",          // the client left during the backoff: abandon, no attempt
	"R=2 views=eh events=r h 1a 0c",       // the loser carried the probe claim: handed back
	"R=2 views=eh events=r h 0e 1e",       // the primary fails under the hedge: the hedge's failure gives up
	"R=3 views=hhh events=r 0e r 0e r 0e", // a 502 only after all three
	"R=1 views=p events=r 0c",             // fail open onto a probing breaker; the cancel books nothing
	"R=3 views=chh events=r h h 0a 1e",    // a second hedge firing changes nothing; the loser's failure books none
}

// TestPolicyStepExhaustive drives the pure policy step with no router,
// goroutine or clock through every event sequence of up to stepDepth events
// at R ∈ {1, 2, 3}, from every table of breaker views (each shard healthy,
// cooling, elapsed or probing), hedge-timer firings included, and checks
// every action against the policy's invariants (stepSim.do). A failure
// prints its case in the form stepRegressions replays.
func TestPolicyStepExhaustive(t *testing.T) {
	for _, c := range stepRegressions {
		if err := replayStepCase(c); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
	sequences := 0
	var search func(sim stepSim)
	search = func(sim stepSim) {
		var buf [16]string
		toks := sim.next(buf[:0])
		if sim.nev == stepDepth || sim.done && sim.nfly == 0 || len(toks) == 0 {
			sequences++
			return
		}
		for _, tok := range toks {
			next := sim
			if err := next.do(tok); err != nil {
				t.Fatalf("%v\ncase: %q (paste it into stepRegressions to replay)", err, next.String())
			}
			search(next)
		}
	}
	for R := 1; R <= 3; R++ {
		for code := 0; code < 1<<(2*R); code++ {
			search(newStepSim(R, [3]int{code % 4, code / 4 % 4, code / 16}))
		}
	}
	t.Logf("%d event sequences", sequences)
}
