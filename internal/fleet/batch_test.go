package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// postTo drives a handler in process and returns the recorded response.
func postTo(h http.Handler, target, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rr
}

// routerMetrics reads the router's /v1/metrics.
func routerMetrics(t *testing.T, router http.Handler) fleet.ShardRouterMetrics {
	t.Helper()
	rr := httptest.NewRecorder()
	router.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m fleet.ShardRouterMetrics
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// breakerFailures sums the failures booked against every shard's breaker.
func breakerFailures(m fleet.ShardRouterMetrics) (n uint64) {
	for _, h := range m.ShardHealth {
		n += h.Failures
	}
	return n
}

// TestBatchShardRefusalIsClientError is the regression test for the routed
// batch's 4xx bug: a sub-batch a healthy shard refuses with 400 used to be
// booked as the shard's failure — 502 to the client, a retry on the replica,
// and after three such requests two healthy shards ejected. It is the
// client's error, as on the GET path: the buffered batch answers the shard's
// status and envelope, the streamed one error lines carrying the shard's
// code, nothing is retried and no breaker moves.
func TestBatchShardRefusalIsClientError(t *testing.T) {
	const bad = `{"requests":[{"context":["o2"],"n":100000}]}`
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	single := postTo(serve.New(shardTestRec(t), serve.Options{}), "/suggest/batch", bad)
	if single.Code != http.StatusBadRequest {
		t.Fatalf("single handler answered %d, want 400", single.Code)
	}

	for i := 0; i < 2*fleet.FailThreshold; i++ {
		rr := postTo(router, "/suggest/batch", bad)
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("request %d: routed batch answered %d, want the shard's 400: %s", i, rr.Code, rr.Body)
		}
		if got, want := rr.Body.String(), single.Body.String(); got != want {
			t.Fatalf("routed refusal is not the shard's envelope:\ngot:  %s\nwant: %s", got, want)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("refusal Content-Type = %q", ct)
		}
		want := fmt.Sprintf("split:-1:ok shard-batch:%d:ok write:-1:error", routeOf(t, router, "q=o2").Shard)
		if got := spansOf(t, router, rr.Header().Get("X-Trace-Id")); strings.Join(got, " ") != want {
			t.Fatalf("refused batch spans = %v, want [%s]", got, want)
		}
	}

	// Streamed: the bad item's sub-batch turns into error lines with the
	// shard's code; an item on another shard is served all the same.
	mixed := `{"requests":[{"context":["o2"],"n":100000},{"context":["o2 mobile"]}]}`
	if routeOf(t, router, "q=o2").Shard == routeOf(t, router, "q=o2+mobile").Shard {
		t.Fatal("test contexts share a shard")
	}
	rr := postTo(router, "/suggest/batch?stream=1", mixed)
	if rr.Code != http.StatusOK {
		t.Fatalf("streamed batch answered %d", rr.Code)
	}
	lines := readRingNDJSON(t, rr.Body, 2)
	var e struct{ Code, Message string }
	if lines[0].Error == nil || json.Unmarshal(lines[0].Error, &e) != nil {
		t.Fatalf("refused item's line = %+v, want an error line", lines[0])
	}
	if e.Code != "bad_request" || !strings.Contains(e.Message, "n must be in") {
		t.Fatalf("refused item's error = %+v, want the shard's bad_request", e)
	}
	if lines[1].Error != nil || !strings.Contains(string(lines[1].Result), `"o2 mobile phones"`) {
		t.Fatalf("good item's line = %s / %s", lines[1].Result, lines[1].Error)
	}
	if rr := postTo(router, "/suggest/batch", mixed); rr.Code != http.StatusBadRequest {
		t.Fatalf("buffered mixed batch answered %d, want 400", rr.Code)
	}

	// The refusal names the item by its place in the client's batch. Here
	// the bad item is the client's second and the only one its shard sees
	// (that shard's requests[0]): the buffered answer is what the single
	// handler says of the whole batch, and the streamed error line says
	// requests[1] as well.
	moved := `{"requests":[{"context":["o2 mobile"]},{"context":["o2"],"n":100000}]}`
	whole := postTo(serve.New(shardTestRec(t), serve.Options{}), "/suggest/batch", moved)
	if !strings.Contains(whole.Body.String(), "requests[1]: n must be in") {
		t.Fatalf("single handler's refusal = %s", whole.Body)
	}
	if rr := postTo(router, "/suggest/batch", moved); rr.Code != http.StatusBadRequest || rr.Body.String() != whole.Body.String() {
		t.Fatalf("routed refusal of client item 1 = %d %s\nsingle handler: %s", rr.Code, rr.Body, whole.Body)
	}
	lines = readRingNDJSON(t, postTo(router, "/suggest/batch?stream=1", moved).Body, 2)
	if lines[1].Error == nil || json.Unmarshal(lines[1].Error, &e) != nil || !strings.Contains(e.Message, "requests[1]: n must be in") {
		t.Fatalf("streamed refusal of client item 1 = %s, want requests[1]", lines[1].Error)
	}
	if lines[0].Error != nil {
		t.Fatalf("the good item came back as an error: %s", lines[0].Error)
	}

	m := routerMetrics(t, router)
	if breakerFailures(m) != 0 || m.Retries != 0 || m.Failovers != 0 {
		t.Fatalf("refusals were held against the shards: retries %d, failovers %d, health %+v", m.Retries, m.Failovers, m.ShardHealth)
	}
	for _, h := range m.ShardHealth {
		if h.State != "healthy" {
			t.Fatalf("refusals ejected a shard: %+v", m.ShardHealth)
		}
	}
	// One exchange per sub-batch: the refused ones were never sent again.
	calls := 0
	for s := 0; s < 3; s++ {
		calls += chaos.callCount(s)
	}
	if want := 2*fleet.FailThreshold + 2 + 2 + 2 + 2; calls != want {
		t.Fatalf("%d shard exchanges, want %d (no retry of a refusal)", calls, want)
	}

	// A refusal answers a half-open probe: the shard is alive.
	primary := routeOf(t, router, "q=o2").Shard
	probing, chaosP := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	chaosP.setDown(primary, true)
	for i := 0; i < fleet.FailThreshold; i++ {
		if rr := postTo(probing, "/suggest/batch", `{"requests":[{"context":["o2"]}]}`); rr.Code != http.StatusOK {
			t.Fatalf("batch with the primary down answered %d", rr.Code)
		}
	}
	if st := routerMetrics(t, probing).ShardHealth[primary].State; st != "ejected" {
		t.Fatalf("primary is %s after %d real failures, want ejected", st, fleet.FailThreshold)
	}
	chaosP.setDown(primary, false)
	fleet.ClockOf(probing).Advance(fleet.ProbeAfter)
	if rr := postTo(probing, "/suggest/batch", bad); rr.Code != http.StatusBadRequest {
		t.Fatalf("refused probe answered %d, want 400", rr.Code)
	}
	if st := routerMetrics(t, probing).ShardHealth[primary].State; st != "healthy" {
		t.Fatalf("primary is %s after answering its probe with a 400, want healthy", st)
	}
}

// TestBatchSpanOutcomes: a sub-batch's span names why it failed the way a GET
// attempt's does — a transport error is "error", a shard's 5xx is
// "upstream-5xx" — and both still fail over and count against the breaker.
func TestBatchSpanOutcomes(t *testing.T) {
	const body = `{"requests":[{"context":["o2"]}]}`
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	primary := routeOf(t, router, "q=o2")
	chaos.failNext(primary.Shard, 1)
	rr := postTo(router, "/suggest/batch", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("failed-over batch answered %d: %s", rr.Code, rr.Body)
	}
	want := []string{"split:-1:ok", fmt.Sprintf("shard-batch:%d:error", primary.Shard), "backoff:-1:ok",
		fmt.Sprintf("shard-batch:%d:ok", primary.Replicas[1]), "write:-1:ok"}
	if got := spansOf(t, router, rr.Header().Get("X-Trace-Id")); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("failed-over batch spans = %v, want %v", got, want)
	}
	if m := routerMetrics(t, router); m.ShardHealth[primary.Shard].Failures != 1 || m.Retries != 1 {
		t.Fatalf("transport error not booked: retries %d, health %+v", m.Retries, m.ShardHealth)
	}

	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shard on fire", http.StatusInternalServerError)
	})
	burning := newVirtualRouter(t, fleet.NewLoopbackTransport(boom, boom), fleet.RouterOptions{Replicas: 2})
	rr = postTo(burning, "/suggest/batch", body)
	if rr.Code != http.StatusBadGateway || !strings.Contains(rr.Body.String(), "status 500: shard on fire") {
		t.Fatalf("burning ring answered %d: %s", rr.Code, rr.Body)
	}
	got := spansOf(t, burning, rr.Header().Get("X-Trace-Id"))
	if len(got) != 5 || !strings.HasSuffix(got[1], ":upstream-5xx") || !strings.HasSuffix(got[3], ":upstream-5xx") || got[4] != "write:-1:error" {
		t.Fatalf("burning ring spans = %v, want two upstream-5xx sub-batches and an errored write", got)
	}
	if m := routerMetrics(t, burning); breakerFailures(m) != 2 {
		t.Fatalf("5xx answers not booked: %+v", m.ShardHealth)
	}

}

// roundTransport records, per exchange, the goroutine it ran on and the
// deadline of the context it ran under.
type roundTransport struct {
	fleet.Transport
	mu        sync.Mutex
	goids     []string
	deadlines []time.Time
}

func (t *roundTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	dl, _ := ctx.Deadline()
	t.mu.Lock()
	t.goids = append(t.goids, goroutineID())
	t.deadlines = append(t.deadlines, dl)
	t.mu.Unlock()
	return t.Transport.Exchange(ctx, shard, method, path, body, respBuf)
}

// TestBatchRoundRunsOneSubBatchInline pins the shape of a fan-out round,
// buffered and streamed: over a transport that can block, of the round's
// sub-batches exactly one — the last — runs on the goroutine that called
// ServeHTTP, the others on goroutines of their own, and all share one attempt
// context (one ShardTimeout deadline); over a LoopbackTransport every one
// runs on the goroutine that called ServeHTTP.
func TestBatchRoundRunsOneSubBatchInline(t *testing.T) {
	const body = ringSpanningBody
	for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
		_, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
		tap := &roundTransport{Transport: chaos}
		router := newVirtualRouter(t, tap, fleet.RouterOptions{Replicas: 2, ShardTimeout: 2 * time.Second})
		if rr := postTo(router, target, body); rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rr.Code, rr.Body)
		}
		if len(tap.goids) != 3 {
			t.Fatalf("%s: %d sub-batches, want 3 (the body spans the ring)", target, len(tap.goids))
		}
		self, inline := goroutineID(), 0
		for i, id := range tap.goids {
			if id == self {
				inline++
			}
			if tap.deadlines[i].IsZero() || !tap.deadlines[i].Equal(tap.deadlines[0]) {
				t.Errorf("%s: sub-batch %d ran under deadline %v, sub-batch 0 under %v", target, i, tap.deadlines[i], tap.deadlines[0])
			}
		}
		if inline != 1 {
			t.Errorf("%s: %d of 3 sub-batches ran on the request goroutine, want 1 (goroutines %v, caller %s)", target, inline, tap.goids, self)
		}

		var mu sync.Mutex
		var goids []string // the shard handlers run on the exchange's goroutine
		handlers, _ := failingShards(t, 3)
		for i, h := range handlers {
			handlers[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				goids = append(goids, goroutineID())
				mu.Unlock()
				h.ServeHTTP(w, r)
			})
		}
		loopback := newVirtualRouter(t, fleet.NewLoopbackTransport(handlers...), fleet.RouterOptions{Replicas: 2})
		if rr := postTo(loopback, target, body); rr.Code != http.StatusOK {
			t.Fatalf("%s over loopback: status %d: %s", target, rr.Code, rr.Body)
		}
		if len(goids) != 3 || goids[0] != self || goids[1] != self || goids[2] != self {
			t.Errorf("%s over loopback: sub-batches ran on goroutines %v, want all 3 on the caller's, %s", target, goids, self)
		}
	}
}

// compactTookless is a result with its insignificant whitespace and its
// timing removed.
func compactTookless(t *testing.T, result []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, result); err != nil {
		t.Fatalf("%v: %s", err, result)
	}
	return stripTook(buf.Bytes())
}

// formattedBodies lays one batch out four ways; every layout must be
// answered like the compact one.
func formattedBodies() map[string]string {
	const compact = `{"requests":[{"context":["o2","o2 mobile"]},{"context":["nokia n73"],"n":1},{"context":["never seen"]}]}`
	lf := "{\n  \"requests\": [\n    {\n      \"context\": [\n        \"o2\",\n        \"o2 mobile\"\n      ]\n    },\n    {\n      \"context\": [\n        \"nokia n73\"\n      ],\n      \"n\": 1\n    },\n    {\n      \"context\": [\n        \"never seen\"\n      ]\n    }\n  ]\n}\n"
	return map[string]string{
		"compact": compact,
		"LF":      lf,
		"CRLF":    strings.ReplaceAll(lf, "\n", "\r\n"),
		"tab":     strings.ReplaceAll(strings.ReplaceAll(lf, "\n", ""), "  ", "\t"),
	}
}

// TestBatchFormattedBodiesAnswerOneLinePerItem is the regression test for
// broken NDJSON records: the context array is echoed from the request body,
// so a pretty-printed body used to make the single handler, the fleet handler
// and the router alike emit records spread over several physical lines (2
// items, 5 lines). However the body is laid out, a streamed answer is one
// line per item, each parsing alone with encoding/json, and streamed and
// buffered results equal the compact body's.
func TestBatchFormattedBodiesAnswerOneLinePerItem(t *testing.T) {
	rec := shardTestRec(t)
	reg := fleet.NewRegistry(1 << 10)
	if _, err := reg.Add("champion", rec, nil); err != nil {
		t.Fatal(err)
	}
	arms, err := fleet.NewRouter(reg, fleet.ArmSpec{Name: "champion", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer arms.Close()
	bodies := formattedBodies()
	for name, h := range map[string]http.Handler{
		"single": serve.New(rec, serve.Options{}),
		"fleet":  serve.New(rec, serve.Options{DefaultN: 5, Fleet: arms}),
		"router": newLoopbackRing(t, rec, 3),
	} {
		var want struct {
			Results []json.RawMessage `json:"results"`
		}
		if rr := postTo(h, "/suggest/batch", bodies["compact"]); rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &want) != nil || len(want.Results) != 3 {
			t.Fatalf("%s: compact body answered %d: %s", name, rr.Code, rr.Body)
		}
		for layout, body := range bodies {
			rr := postTo(h, "/suggest/batch", body)
			var got struct {
				Results []json.RawMessage `json:"results"`
			}
			if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &got) != nil || len(got.Results) != 3 {
				t.Fatalf("%s, %s body: buffered answer %d: %s", name, layout, rr.Code, rr.Body)
			}
			rr = postTo(h, "/suggest/batch?stream=1", body)
			if rr.Code != http.StatusOK {
				t.Fatalf("%s, %s body: streamed answer %d: %s", name, layout, rr.Code, rr.Body)
			}
			if n := bytes.Count(rr.Body.Bytes(), []byte("\n")); n != 3 || !bytes.HasSuffix(rr.Body.Bytes(), []byte("\n")) {
				t.Fatalf("%s, %s body: 3 items streamed as %d lines:\n%s", name, layout, n, rr.Body)
			}
			// readRingNDJSON parses every physical line on its own.
			for i, ln := range readRingNDJSON(t, rr.Body, 3) {
				if ln.Error != nil {
					t.Fatalf("%s, %s body: item %d carries an error: %s", name, layout, i, ln.Error)
				}
				if stripTook(ln.Result) != stripTook(got.Results[i]) {
					t.Fatalf("%s, %s body: item %d streamed and buffered bytes differ\nstreamed: %s\nbuffered: %s", name, layout, i, ln.Result, got.Results[i])
				}
				if compactTookless(t, ln.Result) != compactTookless(t, want.Results[i]) {
					t.Fatalf("%s, %s body: item %d\nstreamed: %s\nbuffered: %s\ncompact:  %s", name, layout, i, ln.Result, got.Results[i], want.Results[i])
				}
			}
		}
		// A raw control byte inside a context string — right after a
		// backslash too — is refused, as encoding/json refuses it; escaped,
		// it is served.
		for _, c := range []string{"\n", "\r", "\t", "\x00", "\x1f", "\\\n"} {
			if rr := postTo(h, "/suggest/batch", `{"requests":[{"context":["o2`+c+`"]}]}`); rr.Code != http.StatusBadRequest {
				t.Fatalf("%s: raw %q inside a context string answered %d, want 400: %s", name, c, rr.Code, rr.Body)
			}
		}
		if rr := postTo(h, "/suggest/batch?stream=1", `{"requests":[{"context":["o2\n"]}]}`); rr.Code != http.StatusOK || bytes.Count(rr.Body.Bytes(), []byte("\n")) != 1 {
			t.Fatalf("%s: escaped line feed answered %d: %s", name, rr.Code, rr.Body)
		}
	}
}

// TestRoutedBatchBodyGrammar is the routed twin of serve's
// TestBatchBodyGrammar, and the regression table for the router reading no
// further than the "requests" array: a foreign key beside it, a comma or
// nothing where the body object should close, a second "requests" that is no
// array were all refused by the single handler and served through the router.
// Both consume one walker now (jsonspan.AppendBatch), which holds a body to
// ARCHITECTURE §9's rule: every body gets the single handler's status,
// buffered and streamed, and a body refused for its grammar — anywhere in it,
// inside an item too — the same answer byte for byte, without a shard
// hearing of it. Only what is no grammar (n's range, an empty context) is
// still a shard's to refuse.
func TestRoutedBatchBodyGrammar(t *testing.T) {
	rec := shardTestRec(t)
	single := serve.New(rec, serve.Options{})
	router, chaos := newChaosRing(t, 3, fleet.RouterOptions{Replicas: 2})
	const item = `{"context":["o2"]}`
	for _, tc := range []struct {
		body   string
		status int
		same   bool // a refusal of the body's own grammar: the answers are the same bytes
		shard  bool // a refusal only the shard can make: streamed, it is an error line under the committed 200
	}{
		{`{"requests":[` + item + `]}`, 200, false, false},
		{` { "requests" : [ ` + item + ` , ` + item + ` ] } `, 200, false, false},
		{`{"requests":[` + item + `],"bogus":1}`, 400, true, false}, // the reported bodies
		{`{"bogus":1,"requests":[` + item + `]}`, 400, true, false},
		{`{"requests":[` + item + `],"requests":5}`, 400, true, false},
		{`{"requests":[` + item + `],}`, 400, true, false},
		{`{"requests":[` + item + `]`, 400, true, false},
		{`{"requests":[` + item + `] "requests":[]}`, 400, true, false},
		{`{"requests":[` + item + `],"requests"}`, 400, true, false},
		{`{"requests":[` + item + `],requests:[]}`, 400, true, false},
		{`{,"requests":[` + item + `]}`, 400, true, false},
		{`{"requests":[,` + item + `]}`, 400, true, false},
		{`{"requests":[` + item + `,]}`, 400, true, false},
		{`{"requests":[` + item + item + `]}`, 400, true, false},
		{`{"requests":{"0":` + item + `}}`, 400, true, false},
		{`[` + item + `]`, 400, true, false},
		{`{}`, 400, true, false},
		{``, 400, true, false},
		{`{"requests":[]}`, 400, true, false},
		{`{"requests":[],"requests":[]}`, 400, true, false},
		// One "requests", and nothing after the object: these three were
		// answered 200 when both handlers added repeated arrays up and neither
		// looked past the closing brace.
		{`{"requests":[` + item + `],"requests":[{"context":["nokia n73"]}]}`, 400, true, false},
		{`{"requests":[],"requests":[` + item + `]}`, 400, true, false},
		{`{"requests":[` + item + `]}{"bogus":1}`, 400, true, false},
		{`{"requests":[` + item + `]} x`, 400, true, false},
		{`{"requests":[` + item + `]}` + " \r\n\t", 200, false, false},
		// A key at most once in an item: the single handler used to score
		// ["o2","o2 mobile"] for the first body, echo ["o2 mobile"], and the
		// router to hash ["o2"].
		{`{"requests":[{"context":["o2"],"context":["o2 mobile"]}]}`, 400, true, false},
		{`{"requests":[{"context":["o2"],"n":1,"n":3}]}`, 400, true, false},
		// n is a JSON integer.
		{`{"requests":[{"context":["o2"],"n":+2}]}`, 400, true, false},
		{`{"requests":[{"context":["o2"],"n":02}]}`, 400, true, false},
		{`{"requests":[{"context":["o2"],"n":1e0}]}`, 400, true, false},
		{`{"requests":[{"context":["o2"],"n":-0}]}`, 200, false, false},
		// The envelope has one encoder: what the refusal quotes of the body
		// reads the same from both.
		{`{"<b>&":1}`, 400, true, false},
		{"{\"a\u2028b\":1}", 400, true, false},
		// Refused inside an item, still for its grammar: the walker's, so the
		// router's, whichever item it is.
		{`{"requests":[` + item + `,{"context":["o2"],"n":100000}],"bogus":1}`, 400, true, false},
		{`{"requests":[{"context":[,"o2",]}]}`, 400, true, false},
		{`{"requests":[{"context":["o2"],"nope":1}]}`, 400, true, false},
		{`{"requests":[` + item + `,{"context":["o2"],"nope":1}]}`, 400, true, false},
		{`{"requests":[1]}`, 400, true, false},
		// Refused for what an item asks, not how it is written: the shard's.
		{`{"requests":[` + item + `,{"context":["o2"],"n":100000}]}`, 400, false, true},
		{`{"requests":[` + item + `,{"context":[]}]}`, 400, false, true},
		{`{"requests":[{}]}`, 400, false, true},
	} {
		for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
			calls := chaos.callCount(0) + chaos.callCount(1) + chaos.callCount(2)
			want, got := postTo(single, target, tc.body), postTo(router, target, tc.body)
			if want.Code != tc.status {
				t.Fatalf("table entry %s: the single handler answers %d: %s", tc.body, want.Code, want.Body)
			}
			for _, rr := range []*httptest.ResponseRecorder{want, got} {
				var env serve.ErrorBody
				if rr.Code == http.StatusOK {
					continue
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != "bad_request" || env.Error.Message == "" {
					t.Errorf("%s %s: refusal is no error envelope (%v): %s", target, tc.body, err, rr.Body)
				}
			}
			if tc.shard && target != "/suggest/batch" {
				if got.Code != http.StatusOK || !bytes.Contains(got.Body.Bytes(), []byte(`"error":{"code":"bad_request"`)) {
					t.Errorf("%s %s: routed answer %d without the shard's refusal as an error line: %s", target, tc.body, got.Code, got.Body)
				}
				continue
			}
			if got.Code != want.Code {
				t.Errorf("%s %s: routed status %d, single handler %d: %s", target, tc.body, got.Code, want.Code, got.Body)
				continue
			}
			if tc.same && got.Body.String() != want.Body.String() {
				t.Errorf("%s %s: routed refusal differs from the single handler's\ngot:  %s\nwant: %s", target, tc.body, got.Body, want.Body)
			}
			if n := chaos.callCount(0) + chaos.callCount(1) + chaos.callCount(2) - calls; tc.same && n != 0 {
				t.Errorf("%s %s: %d shard exchange(s) for a body refused for its grammar", target, tc.body, n)
			}
			if tc.status == http.StatusOK && target == "/suggest/batch" && stripTook(got.Body.Bytes()) != stripTook(want.Body.Bytes()) {
				t.Errorf("%s: routed answer differs from the single handler's\ngot:  %s\nwant: %s", tc.body, got.Body, want.Body)
			}
		}
	}
}

// FuzzRoutedBatchNeverBlamesShard sends arbitrary bodies through a router
// over healthy loopback shards. Whatever the client sends is the client's:
// the answer is 200 or a 4xx, never a 502, a streamed answer holds no
// bad_gateway line, no breaker books a failure, and every 200 is JSON —
// the body whole, or a streamed one line by line — whatever of the client's
// bytes it echoes. And the router is no laxer and no stricter than one
// handler: a buffered batch gets the status the single handler gives the same
// body; a streamed one too, except that what only a shard can refuse arrives
// under the 200 already on the wire, as an error line.
func FuzzRoutedBatchNeverBlamesShard(f *testing.F) {
	for _, body := range formattedBodies() {
		f.Add(body, false)
		f.Add(body, true)
	}
	f.Add(chaosBatchBody, true)
	f.Add(`{"requests":[{"context":["o2"],"n":100000}]}`, false)
	f.Add(`{"requests":[{"context":["o2"],"n":100000},{"context":["o2 mobile"]},{"context":["a"]}]}`, true)
	f.Add("{\"requests\":[{\"context\":[\"a\nb\"]},{\"context\":[\"o2\"]}]}", false)
	f.Add("{\"requests\":[{\"context\":[\"a\\\n\"]},{\"context\":[\"o2\"]}]}", true)
	f.Add(`{"requests":[{"context":[,"o2",]}{"context":["o2 mobile"]}]}`, true)
	f.Add(`{"requests":[{"context":[,"o2",]}]}`, false)
	f.Add(`{"requests":[{"context":["o2""o2 mobile"]},{"context":["a"]}]}`, true)
	f.Add(`{"requests":[,{"context":["o2"]},{"context":["o2 mobile"],,"n":1},]}`, false)
	f.Add(`{"requests":[{"context":["o2"],"n":{"x":[1]}},1,"x",[],{}]}`, false)
	f.Add(`{"requests":[{"context":["}}\n{\"index\":1,\"result\":{"]},{"context":["o2"]}]}`, true)
	f.Add(`{"requests":[{"context":[]},{"nope":1}],"requests":[]}`, false)
	f.Add(`{"requests":[{"context":["o2"]}],"bogus":1}`, false)
	f.Add(`{"requests":[{"context":["o2"]}],"requests":[{"context":["a"]}]} {}`, true)
	f.Add(`{"requests":[{"context":["o2"]}],}`, true)
	rec := shardTestRec(f)
	router, single := newLoopbackRing(f, rec, 3), serve.New(rec, serve.Options{})
	f.Fuzz(func(t *testing.T, body string, stream bool) {
		target := "/suggest/batch"
		if stream {
			target += "?stream=1"
		}
		rr := postTo(router, target, body)
		if rr.Code != http.StatusOK && (rr.Code < 400 || rr.Code > 499) {
			t.Fatalf("status %d for body %q: %s", rr.Code, body, rr.Body)
		}
		if stream && bytes.Contains(rr.Body.Bytes(), []byte(`"bad_gateway"`)) {
			t.Fatalf("streamed answer blames a shard for body %q: %s", body, rr.Body)
		}
		if want := postTo(single, target, body); rr.Code != want.Code {
			shardRefused := stream && rr.Code == http.StatusOK && bytes.Contains(rr.Body.Bytes(), []byte(`,"error":{"code":"bad_request"`))
			if !shardRefused {
				t.Fatalf("body %q: routed status %d, single handler %d\nrouted: %s\nsingle: %s", body, rr.Code, want.Code, rr.Body, want.Body)
			}
		}
		if rr.Code == http.StatusOK {
			docs := [][]byte{rr.Body.Bytes()}
			if stream {
				docs = bytes.Split(bytes.TrimSuffix(rr.Body.Bytes(), []byte("\n")), []byte("\n"))
			}
			for _, doc := range docs {
				if !json.Valid(doc) {
					t.Fatalf("body %q answered 200 with something encoding/json cannot read: %s", body, doc)
				}
			}
		}
		if m := routerMetrics(t, router); breakerFailures(m) != 0 || m.Retries != 0 {
			t.Fatalf("body %q moved a breaker: retries %d, health %+v", body, m.Retries, m.ShardHealth)
		}
	})
}

// ringSpanningBody is a four-item batch whose items reach all three shards
// of a three-shard ring (TestBatchRoundRunsOneSubBatchInline checks it).
const ringSpanningBody = `{"requests":[{"context":["o2"]},{"context":["o2 mobile"]},{"context":["a"]},{"context":["nokia n73"]}]}`

// overlapWait bounds how long overlapTransport's first sub-batch waits for a
// second one: only a router that runs sub-batches one after another waits it
// out.
const overlapWait = 5 * time.Second

// overlapTransport passes every exchange through to the transport it wraps,
// so the router cannot tell that it never blocks and fans each round out
// concurrently. After arm, the first sub-batch it is handed waits until a
// second one has begun, or for overlapWait, which it then reports.
type overlapTransport struct {
	fleet.Transport
	mu       sync.Mutex
	begun    int
	second   chan struct{} // closed when the second sub-batch since arm begins
	timedOut bool
}

// arm resets the transport for the next request.
func (t *overlapTransport) arm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begun, t.second, t.timedOut = 0, make(chan struct{}), false
}

func (t *overlapTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	t.mu.Lock()
	t.begun++
	n, second := t.begun, t.second
	t.mu.Unlock()
	switch {
	case second == nil:
	case n == 1:
		select {
		case <-second:
		case <-time.After(overlapWait):
			t.mu.Lock()
			t.timedOut = true
			t.mu.Unlock()
		}
	case n == 2:
		close(second)
	}
	return t.Transport.Exchange(ctx, shard, method, path, body, respBuf)
}

// failingHandler answers every request 500 while down is set, and passes it
// to the handler it wraps otherwise.
type failingHandler struct {
	http.Handler
	down atomic.Bool
}

func (h *failingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.down.Load() {
		http.Error(w, "shard down", http.StatusInternalServerError)
		return
	}
	h.Handler.ServeHTTP(w, r)
}

// failingShards builds n serving handlers over the test model, each behind a
// failingHandler.
func failingShards(t *testing.T, n int) ([]http.Handler, []*failingHandler) {
	t.Helper()
	rec := shardTestRec(t)
	handlers := make([]http.Handler, n)
	fails := make([]*failingHandler, n)
	for i := range handlers {
		fails[i] = &failingHandler{Handler: serve.New(rec, serve.Options{})}
		handlers[i] = fails[i]
	}
	return handlers, fails
}

// TestBlockingTransportFansOutConcurrently: a transport the router cannot
// prove non-blocking still has a round's sub-batches overlap, buffered and
// streamed — the first one to begin is still running when the second
// begins. Only a LoopbackTransport runs them one after another.
func TestBlockingTransportFansOutConcurrently(t *testing.T) {
	handlers, _ := failingShards(t, 3)
	tp := &overlapTransport{Transport: fleet.NewLoopbackTransport(handlers...)}
	router := newVirtualRouter(t, tp, fleet.RouterOptions{Replicas: 2})
	for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
		tp.arm()
		if rr := postTo(router, target, ringSpanningBody); rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rr.Code, rr.Body)
		}
		tp.mu.Lock()
		begun, timedOut := tp.begun, tp.timedOut
		tp.mu.Unlock()
		if begun != 3 || timedOut {
			t.Fatalf("%s: %d sub-batches, and the first waited %v for a second one (timed out: %v): want 3, overlapping",
				target, begun, overlapWait, timedOut)
		}
	}
}

// TestInlineAndConcurrentFanoutAnswerAlike: the same batch answers the same
// through a LoopbackTransport, whose rounds run inline, and through a
// pass-through wrapper of it, whose rounds fan out on goroutines — healthy
// and with one shard down at R=2. Buffered bodies are byte-identical modulo
// took_us; streamed ones carry the same set of lines, whose order over the
// wrapper is arbitrary.
func TestInlineAndConcurrentFanoutAnswerAlike(t *testing.T) {
	handlers, fails := failingShards(t, 3)
	opts := fleet.RouterOptions{Replicas: 2}
	inline := newVirtualRouter(t, fleet.NewLoopbackTransport(handlers...), opts)
	concurrent := newVirtualRouter(t, &overlapTransport{Transport: fleet.NewLoopbackTransport(handlers...)}, opts)
	sortedLines := func(body []byte) []string {
		lines := strings.Split(strings.TrimSuffix(stripTook(body), "\n"), "\n")
		slices.Sort(lines)
		return lines
	}
	for _, down := range []bool{false, true} {
		fails[1].down.Store(down)
		for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
			a, b := postTo(inline, target, ringSpanningBody), postTo(concurrent, target, ringSpanningBody)
			if a.Code != http.StatusOK || b.Code != http.StatusOK {
				t.Fatalf("shard 1 down %v, %s: status %d inline, %d concurrent", down, target, a.Code, b.Code)
			}
			stream := strings.Contains(target, "stream")
			// A streamed answer's headers are out before any replica answers.
			if fo := a.Header().Get("X-Serve-Failovers"); fo != b.Header().Get("X-Serve-Failovers") || (fo != "") != (down && !stream) {
				t.Fatalf("shard 1 down %v, %s: X-Serve-Failovers %q inline, %q concurrent", down, target, fo, b.Header().Get("X-Serve-Failovers"))
			}
			if stream {
				if la, lb := sortedLines(a.Body.Bytes()), sortedLines(b.Body.Bytes()); !slices.Equal(la, lb) || len(la) != 4 {
					t.Fatalf("shard 1 down %v: streamed lines differ:\ninline:     %q\nconcurrent: %q", down, la, lb)
				}
			} else if sa, sb := stripTook(a.Body.Bytes()), stripTook(b.Body.Bytes()); sa != sb {
				t.Fatalf("shard 1 down %v: buffered bodies differ:\ninline:     %s\nconcurrent: %s", down, sa, sb)
			}
		}
	}
}

// TestInlineFanoutStopsWhenClientLeaves: over a LoopbackTransport a client
// that goes away while the round's first sub-batch is being served leaves
// the round's later sub-batches unrun — each exchange short-circuits on the
// done context — and nothing is held against a shard: no breaker moves, no
// work is retried, and router_client_cancelled_total counts the one request.
func TestInlineFanoutStopsWhenClientLeaves(t *testing.T) {
	for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
		var mu sync.Mutex
		var served []int // the shards whose handler ran
		var cancel context.CancelFunc
		rec := shardTestRec(t)
		handlers := make([]http.Handler, 3)
		for i := range handlers {
			h := serve.New(rec, serve.Options{})
			handlers[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				served = append(served, i)
				mu.Unlock()
				cancel() // the client leaves while this sub-batch is served
				h.ServeHTTP(w, r)
			})
		}
		router := newVirtualRouter(t, fleet.NewLoopbackTransport(handlers...), fleet.RouterOptions{Replicas: 2})
		ctx, c := context.WithCancel(context.Background())
		cancel = c
		rr := httptest.NewRecorder()
		router.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, strings.NewReader(ringSpanningBody)).WithContext(ctx))
		// The round's first sub-batch goes to the first item's primary.
		if first := routeOf(t, router, "q=o2").Shard; len(served) != 1 || served[0] != first {
			t.Fatalf("%s: shards %v served, want only the round's first, %d", target, served, first)
		}
		if stream := strings.Contains(target, "stream"); (rr.Code == 499) == stream {
			t.Fatalf("%s: status %d", target, rr.Code)
		}
		m := routerMetrics(t, router)
		for _, h := range m.ShardHealth {
			if h.State != "healthy" || h.Failures != 0 {
				t.Fatalf("%s: a departed client moved a breaker: %+v", target, m.ShardHealth)
			}
		}
		if m.Cancelled != 1 || m.Retries != 0 {
			t.Fatalf("%s: client_cancelled = %d, retries = %d, want 1 and 0", target, m.Cancelled, m.Retries)
		}
		if prom := string(router.Obs().AppendPrometheus(nil)); !strings.Contains(prom, "router_client_cancelled_total 1\n") {
			t.Fatalf("%s: Prometheus exposition lacks router_client_cancelled_total 1", target)
		}
	}
}

// traceView returns the router's retained trace with the given ID.
func traceView(t *testing.T, router *fleet.ShardRouter, id string) obs.TraceView {
	t.Helper()
	for _, v := range router.Tracer().Snapshot(0, false, 0) {
		if v.ID == id {
			return v
		}
	}
	t.Fatalf("trace %s not retained", id)
	return obs.TraceView{}
}

// TestRouterBatchSpansChain is the router's twin of serve's
// TestSpansChainFromZeroToTotal: a routed batch's trace chains from 0 to its
// total — "split" up to the reading that opens the first round, the round's
// "shard-batch" spans, "backoff" up to the reading that opens each later
// round, then "write" to the total — buffered and streamed, in one round, in
// a two-round failover, and in one round beside a breaker-skip event, which
// marks an instant and takes no part in the chain. Over a LoopbackTransport
// each shard-batch opens where the one before it closed; over a transport
// that can block they may overlap, but lie between their round's opening and
// the next chained span.
func TestRouterBatchSpansChain(t *testing.T) {
	handlers, fails := failingShards(t, 3)
	defer fails[1].down.Store(false)
	for _, tc := range []struct {
		name   string
		inline bool
		tr     fleet.Transport
	}{
		{"loopback", true, fleet.NewLoopbackTransport(handlers...)},
		{"pass-through", false, &overlapTransport{Transport: fleet.NewLoopbackTransport(handlers...)}},
	} {
		for _, sc := range []struct {
			name        string
			down        bool
			before      int // batches served first, with shard 1 down: FailThreshold ejects it
			stages      string
			breakerSkip bool
		}{
			{"healthy", false, 0, "split shard-batch write", false},
			{"failover", true, 0, "split shard-batch backoff shard-batch write", false},
			{"ejected", true, fleet.FailThreshold, "split shard-batch write", true},
		} {
			fails[1].down.Store(sc.down)
			for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
				name := tc.name + " " + sc.name + " " + target
				router := newVirtualRouter(t, tc.tr, fleet.RouterOptions{Replicas: 2})
				for range sc.before {
					postTo(router, "/suggest/batch", ringSpanningBody)
				}
				rr := postTo(router, target, ringSpanningBody)
				if rr.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, rr.Code, rr.Body)
				}
				v := traceView(t, router, rr.Header().Get("X-Trace-Id"))
				var stages []string
				reach, opened, skipped := int64(0), int64(0), false
				for _, sp := range v.Spans {
					switch {
					case sp.DurMicros < 0:
						t.Fatalf("%s: negative span %+v", name, sp)
					case sp.Name == "breaker-skip":
						skipped = true
					case sp.Name == "shard-batch":
						if sp.StartMicros < opened || (tc.inline && sp.StartMicros != reach) || sp.Shard == obs.NoShard {
							t.Fatalf("%s: %+v opens outside its round (opened at %d µs, chain at %d): %+v", name, sp, opened, reach, v.Spans)
						}
						reach = max(reach, sp.StartMicros+sp.DurMicros)
						if stages[len(stages)-1] != sp.Name {
							stages = append(stages, sp.Name)
						}
					default:
						if sp.StartMicros != reach || sp.Shard != obs.NoShard || sp.Outcome != "ok" {
							t.Fatalf("%s: %+v does not open at %d µs, where the chain stands: %+v", name, sp, reach, v.Spans)
						}
						reach = sp.StartMicros + sp.DurMicros
						opened = reach
						stages = append(stages, sp.Name)
					}
				}
				if reach != v.TotalMicros {
					t.Fatalf("%s: the chain ends at %d µs, the trace at %d: %+v", name, reach, v.TotalMicros, v.Spans)
				}
				if got := strings.Join(stages, " "); got != sc.stages || skipped != sc.breakerSkip {
					t.Fatalf("%s: stages %q, breaker skip %v, want %q, %v", name, got, skipped, sc.stages, sc.breakerSkip)
				}
			}
		}
	}
}
