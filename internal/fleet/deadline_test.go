package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
)

// exchangeSeen is what ctxTap keeps of one exchange.
type exchangeSeen struct {
	shard int
	ctx   context.Context
	err   error // set when the exchange returned
}

// ctxTap records the context every exchange ran under and, on returned, the
// exchanges in the order they came back.
type ctxTap struct {
	fleet.Transport
	mu       sync.Mutex
	seen     []*exchangeSeen
	returned chan *exchangeSeen
}

func newCtxTap(inner fleet.Transport) *ctxTap {
	// Room for every exchange of a test: nobody has to drain it.
	return &ctxTap{Transport: inner, returned: make(chan *exchangeSeen, 64)}
}

func (t *ctxTap) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	e := &exchangeSeen{shard: shard, ctx: ctx}
	t.mu.Lock()
	t.seen = append(t.seen, e)
	t.mu.Unlock()
	status, resp, err := t.Transport.Exchange(ctx, shard, method, path, body, respBuf)
	t.mu.Lock()
	e.err = err
	t.mu.Unlock()
	t.returned <- e
	return status, resp, err
}

// newTappedRing builds a chaos ring and a router over a ctxTap on its
// transport.
func newTappedRing(t *testing.T, opts fleet.RouterOptions) (*fleet.ShardRouter, *chaosTransport, *ctxTap) {
	t.Helper()
	_, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	tap := newCtxTap(chaos)
	opts.Replicas, opts.RetryBackoff = 2, -1
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(3, 0), tap, opts)
	if err != nil {
		t.Fatal(err)
	}
	return router, chaos, tap
}

// TestShardTimeoutFailsOver lets ShardTimeout fire, on a GET and on a batch
// round: the primary sits on the request for ten times the attempt's
// deadline, the transport gives up at the deadline (it is the one that arms
// the timer), and the replica's answer is served byte-identical to an
// undisturbed one, with exactly one failure booked against the primary.
func TestShardTimeoutFailsOver(t *testing.T) {
	const timeout, delay, limit = 20 * time.Millisecond, 200 * time.Millisecond, 150 * time.Millisecond
	opts := fleet.RouterOptions{Replicas: 2, ShardTimeout: timeout, FailThreshold: 100}

	t.Run("get", func(t *testing.T) {
		router, chaos := newChaosRing(t, 3, opts)
		get := func() *httptest.ResponseRecorder {
			rr := httptest.NewRecorder()
			router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest?q=o2&q=o2+mobile", nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rr.Code, rr.Body)
			}
			return rr
		}
		want := stripTook(get().Body.Bytes())
		ri := routeOf(t, router, "q=o2&q=o2+mobile")
		primary, backup := ri.Shard, ri.Replicas[1]
		before := routerMetrics(t, router).ShardHealth[primary].Failures

		chaos.setDelay(primary, delay)
		start := time.Now()
		rr := get()
		if took := time.Since(start); took < timeout || took > limit {
			t.Fatalf("timed-out GET took %v, want between the %v deadline and %v", took, timeout, limit)
		}
		if got := stripTook(rr.Body.Bytes()); got != want {
			t.Fatalf("body after a timed-out primary changed:\ngot:  %s\nwant: %s", got, want)
		}
		if got := rr.Header().Get("X-Serve-Attempts"); got != "2" {
			t.Fatalf("X-Serve-Attempts = %q, want 2", got)
		}
		if got := rr.Header().Get("X-Serve-Shard"); got != fmt.Sprint(backup) {
			t.Fatalf("served by shard %s, want backup %d", got, backup)
		}
		wantSpans := []string{fmt.Sprintf("shard:%d:error", primary), fmt.Sprintf("shard:%d:ok", backup)}
		if got := spansOf(t, router, rr.Header().Get("X-Trace-Id")); strings.Join(got, " ") != strings.Join(wantSpans, " ") {
			t.Fatalf("spans = %v, want %v", got, wantSpans)
		}
		m := routerMetrics(t, router)
		if got := m.ShardHealth[primary].Failures - before; got != 1 || breakerFailures(m) != before+1 {
			t.Fatalf("%d failure(s) booked on the primary, want exactly 1: %+v", got, m.ShardHealth)
		}
	})

	t.Run("batch", func(t *testing.T) {
		router, chaos := newChaosRing(t, 3, opts)
		victim := routeOf(t, router, "q=o2").Shard // carries four of the six items
		for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
			chaos.setDelay(victim, 0)
			want := postTo(router, target, chaosBatchBody)
			if want.Code != http.StatusOK {
				t.Fatalf("%s: healthy status %d: %s", target, want.Code, want.Body)
			}
			before := routerMetrics(t, router)

			// The victim's sub-batch stalls: its items regroup onto their
			// replicas in round two.
			chaos.setDelay(victim, delay)
			start := time.Now()
			got := postTo(router, target, chaosBatchBody)
			if took := time.Since(start); took < timeout || took > limit {
				t.Fatalf("%s: timed-out round took %v, want between the %v deadline and %v", target, took, timeout, limit)
			}
			if got.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", target, got.Code, got.Body)
			}
			if target == "/suggest/batch" {
				if stripTook(got.Body.Bytes()) != stripTook(want.Body.Bytes()) {
					t.Fatalf("buffered body after a timed-out round changed:\ngot:  %s\nwant: %s", got.Body, want.Body)
				}
				if got.Header().Get("X-Serve-Failovers") != "4" {
					t.Fatalf("X-Serve-Failovers = %q, want 4", got.Header().Get("X-Serve-Failovers"))
				}
			} else {
				wantLines := readRingNDJSON(t, want.Body, 6)
				for i, ln := range readRingNDJSON(t, got.Body, 6) {
					if ln.Error != nil || stripTook(ln.Result) != stripTook(wantLines[i].Result) {
						t.Fatalf("streamed item %d after a timed-out round = %s / %s, want %s", i, ln.Result, ln.Error, wantLines[i].Result)
					}
				}
			}
			var errored, ok int
			for _, sp := range spansOf(t, router, got.Header().Get("X-Trace-Id")) {
				switch {
				case strings.HasSuffix(sp, ":error"):
					errored++
				case strings.HasSuffix(sp, ":ok"):
					ok++
				}
			}
			if errored != 1 || ok < 2 {
				t.Fatalf("%s: %d timed-out and %d served sub-batch spans, want 1 and at least 2", target, errored, ok)
			}
			m := routerMetrics(t, router)
			if got := m.ShardHealth[victim].Failures - before.ShardHealth[victim].Failures; got != 1 || breakerFailures(m) != breakerFailures(before)+1 {
				t.Fatalf("%s: %d failure(s) booked on the victim, want exactly 1: %+v", target, got, m.ShardHealth)
			}
			if m.Retries-before.Retries != 4 {
				t.Fatalf("%s: %d items retried, want the victim's 4", target, m.Retries-before.Retries)
			}
		}
	})
}

// valueDeadlineCtx carries a deadline the way the router's attempt context
// does: as a value, with no timer behind it. Done never closes.
type valueDeadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c valueDeadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestHTTPTransportArmsTheDeadline: the HTTP transport can block, so it is the
// one to arm a timer against ctx.Deadline(). Against a shard that sits on the
// request it answers context.DeadlineExceeded at about the deadline, and
// leaves no goroutine behind.
func TestHTTPTransportArmsTheDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	client := &http.Client{}
	tr, err := fleet.NewHTTPTransport([]string{srv.URL}, client)
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()

	for _, body := range [][]byte{nil, []byte(chaosBatchBody)} {
		start := time.Now()
		ctx := valueDeadlineCtx{context.Background(), start.Add(deadline)}
		_, _, err = tr.Exchange(ctx, 0, http.MethodPost, "/suggest/batch", body, nil)
		took := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("exchange past its deadline returned %v, want context.DeadlineExceeded", err)
		}
		if took < deadline || took > 2*deadline+50*time.Millisecond {
			t.Fatalf("exchange returned after %v, want about the %v deadline", took, deadline)
		}
	}
	// A deadline already behind us: the exchange does not run.
	if _, _, err = tr.Exchange(valueDeadlineCtx{context.Background(), time.Now().Add(-time.Second)}, 0, http.MethodGet, "/suggest?q=o2", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exchange with its deadline behind it returned %v", err)
	}

	close(release)
	srv.Close()
	client.CloseIdleConnections()
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(wait) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the exchanges, %d after:\n%s", goroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestAttemptContextCarriesTheEarlierDeadline: the deadline an attempt runs
// under is min(the client's, start + ShardTimeout) — on a GET and on a batch
// round — and none at all when neither is set.
func TestAttemptContextCarriesTheEarlierDeadline(t *testing.T) {
	reqs := map[string]func() *http.Request{
		"get": func() *http.Request { return httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil) },
		"batch": func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/suggest/batch", strings.NewReader(`{"requests":[{"context":["o2"]}]}`))
		},
	}
	for name, newReq := range reqs {
		for _, shardTimeout := range []time.Duration{0, 2 * time.Second} {
			router, _, tap := newTappedRing(t, fleet.RouterOptions{ShardTimeout: shardTimeout})
			serve := func(ctx context.Context) (dl time.Time, ok bool, before, after time.Time) {
				before = time.Now()
				rr := httptest.NewRecorder()
				router.ServeHTTP(rr, newReq().WithContext(ctx))
				after = time.Now()
				if rr.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, rr.Code, rr.Body)
				}
				dl, ok = tap.seen[len(tap.seen)-1].ctx.Deadline()
				return
			}

			dl, ok, before, after := serve(context.Background())
			switch {
			case shardTimeout == 0 && ok:
				t.Fatalf("%s, no timeouts anywhere: attempt ran under deadline %v", name, dl)
			case shardTimeout > 0 && (!ok || dl.Before(before.Add(shardTimeout)) || dl.After(after.Add(shardTimeout))):
				t.Fatalf("%s: attempt deadline %v (set %v), want ShardTimeout after a start in [%v, %v]", name, dl, ok, before, after)
			}

			// A client in more of a hurry than ShardTimeout: its deadline is
			// the one the attempt carries, to the nanosecond.
			client, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			want, _ := client.Deadline()
			if dl, ok, _, _ := serve(client); !ok || !dl.Equal(want) {
				t.Fatalf("%s, ShardTimeout %v: attempt deadline %v (set %v), want the client's %v", name, shardTimeout, dl, ok, want)
			}
			cancel()

			// A patient client: ShardTimeout, when there is one, comes first.
			client, cancel = context.WithTimeout(context.Background(), time.Hour)
			want, _ = client.Deadline()
			dl, ok, _, _ = serve(client)
			if shardTimeout > 0 {
				ok = ok && dl.Before(want)
			} else {
				ok = ok && dl.Equal(want)
			}
			if !ok {
				t.Fatalf("%s, ShardTimeout %v: attempt deadline %v under a client deadline of %v", name, shardTimeout, dl, want)
			}
			cancel()
		}
	}
}

// TestAttemptContextCancellation pins who can stop an attempt. An inline
// attempt's Done is the request's own channel: nothing was derived, nobody but
// the client can cancel it, and the deadline does not close it. A raced
// attempt runs under a context of its own, and when the other one wins its
// transport sees Done close — the loser stops early instead of sitting out
// its delay.
func TestAttemptContextCancellation(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		router, chaos, tap := newTappedRing(t, fleet.RouterOptions{ShardTimeout: 20 * time.Millisecond})
		client, cancel := context.WithCancel(context.Background())
		defer cancel()
		chaos.setDelay(routeOf(t, router, "q=o2").Shard, 100*time.Millisecond) // the first attempt times out
		rr := httptest.NewRecorder()
		router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil).WithContext(client))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Serve-Attempts") != "2" {
			t.Fatalf("status %d after %s attempt(s): %s", rr.Code, rr.Header().Get("X-Serve-Attempts"), rr.Body)
		}
		for i, e := range tap.seen {
			if e.ctx.Done() != client.Done() {
				t.Errorf("attempt %d: Done is not the request's own channel", i)
			}
			if e.ctx.Err() != nil {
				t.Errorf("attempt %d: context reads %v after its exchange returned; only the client ends it", i, e.ctx.Err())
			}
		}
		if !errors.Is(tap.seen[0].err, context.DeadlineExceeded) {
			t.Fatalf("first attempt returned %v, want the transport's DeadlineExceeded", tap.seen[0].err)
		}
	})

	t.Run("hedged", func(t *testing.T) {
		const delay = 500 * time.Millisecond
		router, chaos, tap := newTappedRing(t, fleet.RouterOptions{ShardTimeout: 2 * time.Second, HedgeAfter: 2 * time.Millisecond})
		primary := routeOf(t, router, "q=o2").Shard
		chaos.setDelay(primary, delay)
		client, cancel := context.WithCancel(context.Background())
		defer cancel()
		start := time.Now()
		rr := httptest.NewRecorder()
		router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil).WithContext(client))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Serve-Hedge") != "won" {
			t.Fatalf("status %d, X-Serve-Hedge %q: %s", rr.Code, rr.Header().Get("X-Serve-Hedge"), rr.Body)
		}
		winner, loser := <-tap.returned, <-tap.returned
		if took := time.Since(start); took > delay/2 {
			t.Fatalf("the loser came back after %v: it sat out its %v delay", took, delay)
		}
		if winner.shard == primary || loser.shard != primary {
			t.Fatalf("shard %d came back before shard %d, primary is %d", winner.shard, loser.shard, primary)
		}
		if !errors.Is(loser.err, context.Canceled) {
			t.Fatalf("the loser's exchange returned %v, want context.Canceled", loser.err)
		}
		select {
		case <-loser.ctx.Done():
		default:
			t.Fatal("the loser's Done is still open")
		}
		if loser.ctx.Done() == client.Done() || client.Err() != nil {
			t.Fatal("cancelling the loser reached the request's own context")
		}
		if dl, ok := loser.ctx.Deadline(); !ok || dl.Before(start.Add(2*time.Second)) {
			t.Fatalf("a raced attempt's deadline is %v (set %v), want ShardTimeout after its start", dl, ok)
		}
	})
}
