package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
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
		want := fmt.Sprintf("shard-batch:%d:ok", routeOf(t, router, "q=o2").Shard)
		if got := spansOf(t, router, rr.Header().Get("X-Trace-Id")); len(got) != 1 || got[0] != want {
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
	want := []string{fmt.Sprintf("shard-batch:%d:error", primary.Shard), fmt.Sprintf("shard-batch:%d:ok", primary.Replicas[1])}
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
	if len(got) != 2 || !strings.HasSuffix(got[0], ":upstream-5xx") || !strings.HasSuffix(got[1], ":upstream-5xx") {
		t.Fatalf("burning ring spans = %v, want two upstream-5xx", got)
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
// buffered and streamed: of the round's sub-batches exactly one — the last —
// runs on the goroutine that called ServeHTTP, the others on goroutines of
// their own, and all share one attempt context (one ShardTimeout deadline).
func TestBatchRoundRunsOneSubBatchInline(t *testing.T) {
	const body = `{"requests":[{"context":["o2"]},{"context":["o2 mobile"]},{"context":["a"]},{"context":["nokia n73"]}]}`
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
