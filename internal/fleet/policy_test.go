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
// per attempt whichever shard it goes to, and records the shards asked. A
// request's attempts all run on its goroutine (no hedge, one-item batches),
// so it needs no lock.
type scriptTransport struct {
	script []int
	called []int
	cancel context.CancelFunc // the request's
}

func (t *scriptTransport) Shards() int { return 3 }

func (t *scriptTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
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

// policyDrivers are the three ways a request drives the failover policy:
// the GET walk, and a one-item batch's rounds, buffered and streamed.
var policyDrivers = [...]struct {
	name, method, target string
}{
	{"get", http.MethodGet, "/suggest?q=o2"},
	{"batch", http.MethodPost, "/suggest/batch"},
	{"stream", http.MethodPost, "/suggest/batch?stream=1"},
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
	tp.script, tp.called, tp.cancel = script, tp.called[:0], cancel
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
// refusal, 503, transport error, client cancel}, each through the GET walk
// and a buffered and a streamed one-item batch. After every request the
// policy's invariants must hold, and the three drivers must agree on the
// shards tried, the breakers left behind and every counter.
func TestPolicyExhaustive(t *testing.T) {
	cases := 0
	for R := 1; R <= 3; R++ {
		tp := &scriptTransport{}
		s, err := NewShardRouterOpts(NewRing(3, 0), tp, RouterOptions{Replicas: R})
		if err != nil {
			t.Fatal(err)
		}
		prefs := s.ring.LookupN(hashQueryContext("q=o2"), R, nil)
		scripts := policyScripts(R)
		for code := 0; code < numStartStates*numStartStates*numStartStates; code++ {
			starts := [3]int{code % 4, code / 4 % 4, code / 16}
			for _, script := range scripts {
				cases++
				name := policyCaseName(R, starts, script)
				var runs [len(policyDrivers)]policyRun
				for d, drv := range policyDrivers {
					runs[d] = runPolicyCase(s, tp, starts, script, d)
					checkPolicyRun(t, name+" "+drv.name, runs[d], R, prefs, starts, script, drv.name)
				}
				for d := 1; d < len(runs); d++ {
					if !agree(runs[0], runs[d]) {
						t.Fatalf("%s: %s and %s disagree:\n%+v\n%+v", name, policyDrivers[0].name, policyDrivers[d].name, runs[0], runs[d])
					}
				}
				if runs[0].status != runs[1].status {
					t.Fatalf("%s: GET answered %d, buffered batch %d", name, runs[0].status, runs[1].status)
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
