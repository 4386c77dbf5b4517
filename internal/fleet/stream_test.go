package fleet_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// ringNDJSONLine is one streamed router response line.
type ringNDJSONLine struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result"`
	Error  json.RawMessage `json:"error"`
}

// readRingNDJSON collects an NDJSON stream into per-index lines, enforcing
// exactly-once coverage of [0,want).
func readRingNDJSON(t *testing.T, rd io.Reader, want int) []ringNDJSONLine {
	t.Helper()
	lines := make([]ringNDJSONLine, want)
	seen := make([]bool, want)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var ln ringNDJSONLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("line %d: %v: %s", n, err, sc.Bytes())
		}
		if ln.Index < 0 || ln.Index >= want || seen[ln.Index] {
			t.Fatalf("line %d: bad or duplicate index %d", n, ln.Index)
		}
		seen[ln.Index] = true
		lines[ln.Index] = ln
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("streamed %d lines, want %d", n, want)
	}
	return lines
}

// TestRingBatchStreamParity: the router's streamed NDJSON response must
// carry, for every item, the same result bytes (modulo took_us) as the
// buffered merge of the identical batch — only the framing and arrival
// order differ.
func TestRingBatchStreamParity(t *testing.T) {
	rec := shardTestRec(t)
	router := newLoopbackRing(t, rec, 3)
	ringSrv := httptest.NewServer(router)
	defer ringSrv.Close()

	body := `{"requests":[{"context":["o2"]},{"context":["nokia n73"],"n":1},{"context":["o2","o2 mobile"]},{"context":["never seen"]},{"context":["nokia n73"]}]}`
	resp, err := http.Post(ringSrv.URL+"/suggest/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buffered struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&buffered); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Results) != 5 {
		t.Fatalf("buffered results = %d, want 5", len(buffered.Results))
	}

	sresp, err := http.Post(ringSrv.URL+"/v1/suggest/batch?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	for i, ln := range readRingNDJSON(t, sresp.Body, 5) {
		if ln.Error != nil {
			t.Fatalf("item %d carries an error: %s", i, ln.Error)
		}
		if got, want := stripTook(ln.Result), stripTook(buffered.Results[i]); got != want {
			t.Fatalf("item %d:\nstream:   %s\nbuffered: %s", i, got, want)
		}
	}
}

// TestRingBatchStreamShardFailure: once the streaming 200 is committed, a
// failing shard must surface as {"index":N,"error":{...}} lines for its
// items — every index still answered exactly once — instead of a 502.
func TestRingBatchStreamShardFailure(t *testing.T) {
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shard down", http.StatusInternalServerError)
	})
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(2, 0), fleet.NewLoopbackTransport(boom, boom), fleet.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(router)
	defer srv.Close()

	body := `{"requests":[{"context":["o2"]},{"context":["nokia n73"]},{"context":["o2","o2 mobile"]}]}`
	resp, err := http.Post(srv.URL+"/suggest/batch?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200 (errors travel as lines)", resp.StatusCode)
	}
	for i, ln := range readRingNDJSON(t, resp.Body, 3) {
		if ln.Error == nil {
			t.Fatalf("item %d: expected an error line, got result %s", i, ln.Result)
		}
		var e struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		}
		if err := json.Unmarshal(ln.Error, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != "bad_gateway" || !strings.Contains(e.Message, "shard") {
			t.Fatalf("item %d error = %+v", i, e)
		}
	}

	// The buffered path reports the same failure as one 502.
	bresp, err := http.Post(srv.URL+"/suggest/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadGateway {
		t.Fatalf("buffered status = %d, want 502", bresp.StatusCode)
	}
}

// TestHTTPTransportStream runs the streamed batch over real HTTP shard
// servers, checking the flushing path end to end (httptest's server wraps a
// real http.Flusher).
func TestHTTPTransportStream(t *testing.T) {
	rec := shardTestRec(t)
	var urls []string
	for i := 0; i < 2; i++ {
		s := httptest.NewServer(serve.New(rec, serve.Options{}))
		defer s.Close()
		urls = append(urls, s.URL)
	}
	tr, err := fleet.NewHTTPTransport(urls)
	if err != nil {
		t.Fatal(err)
	}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(2, 0), tr, fleet.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(router)
	defer srv.Close()

	body := `{"requests":[{"context":["o2"]},{"context":["nokia n73"]},{"context":["o2","o2 mobile"]}]}`
	resp, err := http.Post(srv.URL+"/v1/suggest/batch?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	for i, ln := range readRingNDJSON(t, resp.Body, 3) {
		if ln.Error != nil {
			t.Fatalf("item %d carries an error: %s", i, ln.Error)
		}
		var item struct {
			Context     []string          `json:"context"`
			Suggestions []json.RawMessage `json:"suggestions"`
		}
		if err := json.Unmarshal(ln.Result, &item); err != nil {
			t.Fatal(err)
		}
		if len(item.Context) == 0 {
			t.Fatalf("item %d: empty context echo: %s", i, ln.Result)
		}
	}
}
