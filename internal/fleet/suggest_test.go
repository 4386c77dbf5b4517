package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// goroutineID reads the calling goroutine's ID off its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(fields[1])
}

// goidTransport records the goroutine every exchange runs on.
type goidTransport struct {
	fleet.Transport
	mu   sync.Mutex
	seen []string
}

func (t *goidTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	t.mu.Lock()
	t.seen = append(t.seen, goroutineID())
	t.mu.Unlock()
	return t.Transport.Exchange(ctx, shard, method, path, body, respBuf)
}

// TestSuggestUnhedgedRunsOnCallerGoroutine pins the inline mode: with no
// hedge armed every GET attempt — the failover attempt included — runs on
// the goroutine that called ServeHTTP; with a hedge armed the raced attempts
// run on goroutines of their own.
func TestSuggestUnhedgedRunsOnCallerGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name       string
		hedgeAfter time.Duration
		inline     bool
	}{
		{"unhedged", 0, true},
		{"hedged", time.Second, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Only the ring's chaos transport is wanted: the router under
			// test is built over a tap on it.
			_, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
			tap := &goidTransport{Transport: chaos}
			router := newVirtualRouter(t, tap, fleet.RouterOptions{
				Replicas: 2, ShardTimeout: 2 * time.Second, HedgeAfter: tc.hedgeAfter,
			})
			serve := func() {
				rr := httptest.NewRecorder()
				router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil))
				if rr.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rr.Code, rr.Body)
				}
			}
			serve()
			chaos.failNext(routeOf(t, router, "q=o2").Shard, 1) // second request fails over
			serve()
			if len(tap.seen) != 3 {
				t.Fatalf("saw %d exchanges, want 3 (one clean, one failed over)", len(tap.seen))
			}
			self := goroutineID()
			// The raced attempt is the first of a request; a failover attempt
			// after a lost race is walked inline again in both modes.
			for i, id := range tap.seen {
				raced := !tc.inline && i != 2
				if (id == self) == raced {
					t.Errorf("exchange %d ran on goroutine %s, caller is %s (hedge %v)", i, id, self, tc.hedgeAfter)
				}
			}
		})
	}
}

// routeOf asks the router where a query string's context lives.
func routeOf(t *testing.T, router http.Handler, qs string) fleet.RouteResponse {
	t.Helper()
	rr := httptest.NewRecorder()
	router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/route?"+qs, nil))
	var ri fleet.RouteResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &ri); err != nil {
		t.Fatal(err)
	}
	return ri
}

// spansOf returns "name:shard:outcome" for every span of the retained trace
// with the given ID.
func spansOf(t *testing.T, router *fleet.ShardRouter, id string) []string {
	t.Helper()
	for _, v := range router.Tracer().Snapshot(0, false, 0) {
		if v.ID != id {
			continue
		}
		var out []string
		for _, s := range v.Spans {
			out = append(out, fmt.Sprintf("%s:%d:%s", s.Name, s.Shard, s.Outcome))
		}
		return out
	}
	t.Fatalf("trace %s not retained", id)
	return nil
}

// TestRoutedGETHashesWhatTheShardServes is the regression test for the routed
// GET's dropped pairs: the router used to hash a q value whose escape does not
// decode by its raw bytes, while the shard's handler drops the pair — so
// `q=X&q=%zz` was served as the context ["X"] by another replica than `q=X`
// (28 of these 40 contexts), on a cold cache beside the warm one. Router and
// handler read the query string off one walker (jsonspan.Query): a pair that
// does not count for one does not count for the other, and /v1/route agrees.
func TestRoutedGETHashesWhatTheShardServes(t *testing.T) {
	router, _ := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 1})
	get := func(qs string) (body, shard string) {
		rr := httptest.NewRecorder()
		router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest?"+qs, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", qs, rr.Code, rr.Body)
		}
		return stripTook(rr.Body.Bytes()), rr.Header().Get("X-Serve-Shard")
	}
	for i := 0; i < 40; i++ {
		plain := fmt.Sprintf("q=context+%d", i)
		wantBody, wantShard := get(plain)
		if got := strconv.Itoa(routeOf(t, router, plain).Shard); got != wantShard {
			t.Fatalf("%s: /v1/route says shard %s, shard %s answered", plain, got, wantShard)
		}
		for _, dropped := range []string{"&q=%zz", "&q=%4", "&bogus", "&q%zz=Y"} {
			body, shard := get(plain + dropped)
			if shard != wantShard || body != wantBody {
				t.Errorf("%s: answered by shard %s with %s\n%s: by shard %s with %s", plain+dropped, shard, body, plain, wantShard, wantBody)
			}
			if got := strconv.Itoa(routeOf(t, router, plain+dropped).Shard); got != wantShard {
				t.Errorf("%s: /v1/route says shard %s, %s is on shard %s", plain+dropped, got, plain, wantShard)
			}
		}
	}
}

// TestSuggestUnhedgedFailoverR2 walks the inline failover at R=2 with the
// primary down: the body is byte-identical to the fault-free run, the
// response says two attempts, the trace holds exactly the two attempt spans
// (error, ok) — and once the breaker has ejected the primary, one attempt
// and exactly one breaker-skip.
func TestSuggestUnhedgedFailoverR2(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2, ShardTimeout: 2 * time.Second})
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

	chaos.setDown(primary, true)
	for i := 0; i < fleet.FailThreshold; i++ {
		rr := get()
		if got := stripTook(rr.Body.Bytes()); got != want {
			t.Fatalf("failed-over body changed:\ngot:  %s\nwant: %s", got, want)
		}
		if got := rr.Header().Get("X-Serve-Attempts"); got != "2" {
			t.Fatalf("X-Serve-Attempts = %q, want 2", got)
		}
		if got := rr.Header().Get("X-Serve-Shard"); got != fmt.Sprint(backup) {
			t.Fatalf("served by shard %s, want backup %d", got, backup)
		}
		wantSpans := []string{fmt.Sprintf("shard:%d:error", primary), fmt.Sprintf("shard:%d:ok", backup)}
		if got := spansOf(t, router, rr.Header().Get("X-Trace-Id")); strings.Join(got, " ") != strings.Join(wantSpans, " ") {
			t.Fatalf("failed-over spans = %v, want %v", got, wantSpans)
		}
	}

	// FailThreshold failures in a row: the primary is ejected and skipped.
	rr := get()
	if got := stripTook(rr.Body.Bytes()); got != want {
		t.Fatalf("breaker-skipped body changed:\ngot:  %s\nwant: %s", got, want)
	}
	if got := rr.Header().Get("X-Serve-Attempts"); got != "1" {
		t.Fatalf("X-Serve-Attempts = %q after ejection, want 1", got)
	}
	wantSpans := []string{fmt.Sprintf("breaker-skip:%d:skipped", primary), fmt.Sprintf("shard:%d:ok", backup)}
	if got := spansOf(t, router, rr.Header().Get("X-Trace-Id")); strings.Join(got, " ") != strings.Join(wantSpans, " ") {
		t.Fatalf("breaker-skipped spans = %v, want %v", got, wantSpans)
	}
}

// TestObsRoutedGETSpansNest: on a routed GET every attempt's "shard" span lies
// inside [0, total] of its trace, and attempt k+1 starts no earlier than
// attempt k ended. The walk stamps an attempt's end, the next one's start and
// the trace's total from clock reads taken in that order, so this holds to the
// microsecond — with a clock read of its own per span and per histogram it
// held only approximately. Every request first steps the clock past the
// cool-down, so the dead primary, ejected from its third failure on, is
// tried each time as its half-open probe and no breaker-skip is noted.
func TestObsRoutedGETSpansNest(t *testing.T) {
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 3, ShardTimeout: 2 * time.Second})
	prefs := routeOf(t, router, "q=o2").Replicas
	chaos.setDown(prefs[0], true)
	chaos.setDelay(prefs[2], 200*time.Microsecond)
	for i := 0; i < 50; i++ {
		fleet.ClockOf(router).Advance(fleet.ProbeAfter)
		chaos.failNext(prefs[1], i%2) // every other request walks the whole list
		rr := httptest.NewRecorder()
		router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil))
		if want := fmt.Sprint(2 + i%2); rr.Code != http.StatusOK || rr.Header().Get("X-Serve-Attempts") != want {
			t.Fatalf("request %d: status %d after %s attempt(s), want %s", i, rr.Code, rr.Header().Get("X-Serve-Attempts"), want)
		}
	}
	views := router.Tracer().Snapshot(0, false, 0)
	if len(views) != 50 {
		t.Fatalf("%d traces retained, want all 50", len(views))
	}
	for _, v := range views {
		var prevEnd int64
		for k, sp := range v.Spans {
			if sp.Name != "shard" {
				t.Fatalf("trace %s: unexpected span %+v", v.ID, sp)
			}
			if sp.StartMicros < prevEnd || sp.DurMicros < 0 || sp.StartMicros+sp.DurMicros > v.TotalMicros {
				t.Fatalf("trace %s (total %dus): attempt %d spans [%d, %d]us, the one before ended at %dus: %+v",
					v.ID, v.TotalMicros, k, sp.StartMicros, sp.StartMicros+sp.DurMicros, prevEnd, v.Spans)
			}
			prevEnd = sp.StartMicros + sp.DurMicros
		}
	}
}

// TestClientCancelDoesNotPoisonBreakers is the regression test for the
// client-disconnect bug: requests whose own context is already cancelled make
// every attempt fail with context.Canceled, which used to count against
// healthy shards (three aborted clients ejected one). They must leave every
// breaker healthy with zero failures, hand back a half-open probe claim they
// were carrying, and show up in client_cancelled — on the inline GET walk,
// the hedged race and the batch fan-out alike.
func TestClientCancelDoesNotPoisonBreakers(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	get := func() *http.Request { return httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil) }
	batch := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/suggest/batch", strings.NewReader(chaosBatchBody))
	}
	for _, tc := range []struct {
		name string
		opts fleet.RouterOptions
		req  func() *http.Request
	}{
		{"get-inline", fleet.RouterOptions{Replicas: 2}, get},
		{"get-hedged", fleet.RouterOptions{Replicas: 2, HedgeAfter: time.Second}, get},
		{"batch", fleet.RouterOptions{Replicas: 2}, batch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			router, chaos := newChaosRing(t, 3, tc.opts)
			metrics := func() fleet.ShardRouterMetrics {
				rr := httptest.NewRecorder()
				router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
				var m fleet.ShardRouterMetrics
				if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
					t.Fatal(err)
				}
				return m
			}
			const n = 2 * fleet.FailThreshold
			for i := 0; i < n; i++ {
				rr := httptest.NewRecorder()
				router.ServeHTTP(rr, tc.req().WithContext(cancelled))
				if rr.Code != 499 {
					t.Fatalf("cancelled request answered %d, want 499: %s", rr.Code, rr.Body)
				}
			}
			m := metrics()
			for _, h := range m.ShardHealth {
				if h.State != "healthy" || h.Failures != 0 {
					t.Fatalf("cancelled clients poisoned a breaker: %+v", m.ShardHealth)
				}
			}
			if m.Cancelled != n || m.Retries != 0 {
				t.Fatalf("client_cancelled = %d (want %d), retries = %d (want 0)", m.Cancelled, n, m.Retries)
			}
			prom := router.Obs().AppendPrometheus(nil)
			if want := fmt.Sprintf("router_client_cancelled_total %d\n", n); !strings.Contains(string(prom), want) {
				t.Fatalf("Prometheus exposition lacks %q", want)
			}

			// Eject the primary for real, step past its cool-down, then let a
			// cancelled request claim the half-open probe: the claim must come
			// back ("ejected"), not strand the breaker at "probing".
			primary := routeOf(t, router, "q=o2").Shard
			chaos.setDown(primary, true)
			for i := 0; i < fleet.FailThreshold; i++ {
				rr := httptest.NewRecorder()
				router.ServeHTTP(rr, tc.req())
				if rr.Code != http.StatusOK {
					t.Fatalf("live request with the primary down: status %d: %s", rr.Code, rr.Body)
				}
			}
			if st := metrics().ShardHealth[primary].State; st != "ejected" {
				t.Fatalf("primary is %s after %d real failures, want ejected", st, fleet.FailThreshold)
			}
			fleet.ClockOf(router).Advance(fleet.ProbeAfter)
			router.ServeHTTP(httptest.NewRecorder(), tc.req().WithContext(cancelled))
			if st := metrics().ShardHealth[primary].State; st != "ejected" {
				t.Fatalf("primary is %s after a cancelled probe, want ejected (claim released)", st)
			}
		})
	}
}

// TestRouterGETAllocs is the allocation gate on the router hop, over three
// loopback shards at R=2 with a 2 s ShardTimeout and no hedge — cmd/serve's
// default router. A routed GET allocates twice: its attempt context — deadline and trace header as plain
// fields, no timer, no cancel — and the URI it forwards. A routed batch whose
// items share a shard allocates its round's one attempt context and a body
// limiter (http.MaxBytesReader) in the router and in the shard. One more on
// either means a derived context, a goroutine, a channel or a closure crept
// back onto the inline path.
func TestRouterGETAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rec := shardTestRec(t)
	handlers := make([]http.Handler, 3)
	for i := range handlers {
		handlers[i] = serve.New(rec, serve.Options{})
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(3, 0), fleet.NewLoopbackTransport(handlers...),
		fleet.RouterOptions{Replicas: 2, ShardTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	batchBody := []byte(`{"requests":[{"context":["o2","o2 mobile"]},{"context":["o2","o2 mobile"],"n":1}]}`)
	body := &replayBody{}
	get := httptest.NewRequest(http.MethodGet, "/suggest?q=o2&q=o2+mobile", nil)
	batch := httptest.NewRequest(http.MethodPost, "/suggest/batch", nil)
	batch.Body = body
	for _, tc := range []struct {
		name string
		req  *http.Request
		want float64
	}{
		{"get", get, 2},
		{"batch", batch, 3},
	} {
		rr := &discardResponse{header: make(http.Header, 8)}
		run := func() {
			body.Reset(batchBody)
			router.ServeHTTP(rr, tc.req)
		}
		// Warm past the 256-trace retention rings of the router and the
		// shard: while a ring fills, every finish grows a slot's span copy.
		for i := 0; i < 600; i++ {
			run()
		}
		if rr.code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, rr.code)
		}
		if allocs := testing.AllocsPerRun(500, run); allocs != tc.want {
			t.Errorf("a routed %s allocates %.0f times per request, want %.0f", tc.name, allocs, tc.want)
		}
	}
}

// TestShardFanoutAllocs pins the pooled batch fan-out: a 64-item POST
// /suggest/batch split across three loopback shards on warm caches allocates
// 5 times a batch, at R=1 and at R=2 alike: the body limiters
// (http.MaxBytesReader) of the router and of the three shards, and the
// round's one attempt context. A LoopbackTransport cannot block, so the
// round's sub-batches run on the request goroutine: one more is a goroutine,
// a closure, a derived context or a per-sub-batch allocation creeping back,
// and a per-item allocation would cost 64. The replicated fan-out's
// preference lists and attempt masks are pooled, so R=2 pays nothing over
// R=1 on the healthy path.
func TestShardFanoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rec := shardTestRec(t)
	handlers := make([]http.Handler, 3)
	for i := range handlers {
		handlers[i] = serve.New(rec, serve.Options{})
	}
	router := func(r int) *fleet.ShardRouter {
		router, err := fleet.NewShardRouterOpts(fleet.NewRing(3, 0), fleet.NewLoopbackTransport(handlers...),
			fleet.RouterOptions{Replicas: r})
		if err != nil {
			t.Fatal(err)
		}
		return router
	}
	r1, r2 := router(1), router(2)

	// Every one- and two-query context over the test vocabulary, repeated
	// to 64 items: enough distinct keys to reach all three shards.
	vocab := []string{"o2", "o2 mobile", "o2 mobile phones", "nokia n73", "nokia n73 themes"}
	var ctxs [][]string
	for _, a := range vocab {
		ctxs = append(ctxs, []string{a})
		for _, b := range vocab {
			ctxs = append(ctxs, []string{a, b})
		}
	}
	shards := map[int]bool{}
	req := serve.BatchRequest{Requests: make([]serve.BatchItem, 64)}
	for i := range req.Requests {
		ctx := ctxs[(i*7)%len(ctxs)]
		req.Requests[i] = serve.BatchItem{Context: ctx, N: 5}
		qs := strings.ReplaceAll("q="+strings.Join(ctx, "&q="), " ", "+")
		shards[routeOf(t, r1, qs).Shard] = true
	}
	if len(shards) != 3 {
		t.Fatalf("the batch reaches shards %v, want all three", shards)
	}
	batchBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	body := &replayBody{}
	batch := httptest.NewRequest(http.MethodPost, "/suggest/batch", nil)
	batch.Body = body
	rr := &discardResponse{header: make(http.Header, 8)}
	allocs := func(router *fleet.ShardRouter) float64 {
		run := func() {
			body.Reset(batchBody)
			router.ServeHTTP(rr, batch)
		}
		// Warm the shard caches and past the 256-trace retention rings.
		for i := 0; i < 300; i++ {
			run()
		}
		if rr.code != http.StatusOK {
			t.Fatalf("status %d", rr.code)
		}
		return testing.AllocsPerRun(50, run)
	}
	a1, a2 := allocs(r1), allocs(r2)
	t.Logf("allocations per batch-64: %.0f at R=1, %.0f at R=2", a1, a2)
	if a1 != 5 || a2 != 5 {
		t.Errorf("a routed batch-64 allocates %.0f times at R=1 and %.0f at R=2, want 5 and 5", a1, a2)
	}
}

// replayBody is a request body that can be rewound without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardResponse is an allocation-free http.ResponseWriter.
type discardResponse struct {
	header http.Header
	code   int
}

func (r *discardResponse) Header() http.Header  { return r.header }
func (r *discardResponse) WriteHeader(code int) { r.code = code }
func (r *discardResponse) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return len(p), nil
}

// slowHandler delays every response write of the handler it wraps by delay
// (0: none), inside that handler's own request trace.
type slowHandler struct {
	http.Handler
	delay atomic.Int64 // time.Duration
}

func (h *slowHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(h.delay.Load()); d > 0 {
		w = slowWriter{w, d}
	}
	h.Handler.ServeHTTP(w, r)
}

type slowWriter struct {
	http.ResponseWriter
	delay time.Duration
}

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseWriter.Write(p)
}

// TestShardBehindRouterTailSamplesSlow: a shard behind a router adopts the
// router's trace ID on every request and so never carves one, yet it still
// reads its slow threshold, and with its retention ring full it keeps the
// trace of a slow answer — under the router's ID — and reports a finite
// slow_threshold_us on /v1/traces. A shard that refreshed its threshold only
// when it carved IDs never did either.
func TestShardBehindRouterTailSamplesSlow(t *testing.T) {
	rec := shardTestRec(t)
	shards := make([]*serve.Handler, 3)
	slow := make([]*slowHandler, 3)
	handlers := make([]http.Handler, 3)
	for i := range handlers {
		shards[i] = serve.New(rec, serve.Options{})
		slow[i] = &slowHandler{Handler: shards[i]}
		handlers[i] = slow[i]
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(3, 0), fleet.NewLoopbackTransport(handlers...),
		fleet.RouterOptions{Replicas: 2, ShardTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	owner := routeOf(t, router, "q=o2").Shard
	get := func() string {
		rr := httptest.NewRecorder()
		router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil))
		if rr.Code != http.StatusOK || rr.Header().Get("X-Serve-Shard") != strconv.Itoa(owner) {
			t.Fatalf("status %d from shard %s, want 200 from %d: %s", rr.Code, rr.Header().Get("X-Serve-Shard"), owner, rr.Body)
		}
		return rr.Header().Get("X-Trace-Id")
	}
	// Fill the owner's 256-trace ring with fast requests, and go on until it
	// has read a threshold (a request that records 0 us sets none).
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 300 || shards[owner].Tracer().SlowThresholdMicros() == math.MaxInt64; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("after %d requests the shard has not read its slow threshold", i)
		}
		get()
	}

	const delay = 20 * time.Millisecond
	slow[owner].delay.Store(int64(delay))
	id := get()
	slow[owner].delay.Store(0)

	rr := httptest.NewRecorder()
	shards[owner].ServeHTTP(rr, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/traces?min_us=%d", delay.Microseconds()), nil))
	var resp obs.TracesResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/v1/traces: %v: %s", err, rr.Body)
	}
	if th := resp.SlowThresholdMicros; th <= 0 || th >= delay.Microseconds() {
		t.Fatalf("shard's slow_threshold_us = %d, want a fast request's p99", th)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].ID != id {
		t.Fatalf("the shard retained %+v for its slow answer, want one trace under the router's ID %s", resp.Traces, id)
	}
}

// TestRouterTraceHeaderSurvivesTraceRecycle: the router's X-Trace-Id response
// header — GET and batch — is written after the handler returned and its
// trace recorder was restarted for later requests; held until then (the
// recorder keeps the handler's header values by reference, as net/http does)
// it must still read this request's ID, generated or adopted.
func TestRouterTraceHeaderSurvivesTraceRecycle(t *testing.T) {
	_, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	router := newVirtualRouter(t, chaos, fleet.RouterOptions{Replicas: 2, ShardTimeout: 2 * time.Second})
	do := func(method, target, body, inbound string) *discardResponse {
		w := &discardResponse{header: make(http.Header)}
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		if inbound != "" {
			req.Header["X-Trace-Id"] = []string{inbound}
		}
		router.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, target, w.code)
		}
		return w
	}
	traceID := func(w *discardResponse) string { return strings.Join(w.header["X-Trace-Id"], ",") }
	churn := func(n int) {
		for i := 0; i < n; i++ {
			do(http.MethodGet, "/suggest?q=o2", "", "")
			do(http.MethodPost, "/suggest/batch", chaosBatchBody, "")
		}
	}
	churn(128) // past the router's 256-trace retention ring: every later trace is recycled on finish
	type held struct {
		name string
		w    *discardResponse
		want string
	}
	var helds []held
	for _, tc := range []struct{ name, method, target, body, inbound string }{
		{"GET", http.MethodGet, "/suggest?q=o2", "", ""},
		{"GET adopted", http.MethodGet, "/suggest?q=o2", "", "feedfacecafebeef"},
		{"batch", http.MethodPost, "/suggest/batch", chaosBatchBody, ""},
		{"batch adopted", http.MethodPost, "/suggest/batch", chaosBatchBody, "0123456789abcdef"},
	} {
		w := do(tc.method, tc.target, tc.body, tc.inbound)
		want := strings.Clone(traceID(w)) // owned: the header's own bytes are under test
		if len(want) != 16 || (tc.inbound != "" && want != tc.inbound) {
			t.Fatalf("%s: X-Trace-Id %q at handler return (inbound %q)", tc.name, want, tc.inbound)
		}
		helds = append(helds, held{tc.name, w, want})
	}
	churn(32)
	for _, h := range helds {
		if got := traceID(h.w); got != h.want {
			t.Errorf("%s: X-Trace-Id read %q at flush, was %q when the handler returned", h.name, got, h.want)
		}
	}
}
