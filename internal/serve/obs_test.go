package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// getJSON GETs url and decodes the JSON body into out, failing the test on
// transport or decode errors.
func getJSON(t *testing.T, client *http.Client, url string, out any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s decode: %v", url, err)
	}
}

// TestRequestIDPropagation covers the correlation-ID contract: a
// client-supplied X-Request-Id is echoed verbatim, an absent one is filled
// with the generated trace ID, and every response carries an X-Trace-Id.
func TestRequestIDPropagation(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testRecommender(t), 5))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/suggest?q=o2", nil)
	req.Header.Set("X-Request-Id", "client-rid-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-rid-42" {
		t.Fatalf("X-Request-Id = %q, want the client's client-rid-42", got)
	}
	if tid := resp.Header.Get("X-Trace-Id"); len(tid) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex chars", tid)
	}

	resp2, err := http.Get(srv.URL + "/suggest?q=o2")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	rid, tid := resp2.Header.Get("X-Request-Id"), resp2.Header.Get("X-Trace-Id")
	if rid == "" || rid != tid {
		t.Fatalf("generated X-Request-Id = %q, want the trace ID %q", rid, tid)
	}
}

// TestPrometheusRoundTripHTTP scrapes the text exposition over HTTP, parses
// it back with obs.ParsePrometheus and cross-checks it against the JSON
// /v1/metrics view of the same counters.
func TestPrometheusRoundTripHTTP(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testRecommender(t), 5))
	defer srv.Close()

	const n = 7
	for i := 0; i < n; i++ {
		resp, err := http.Get(srv.URL + "/suggest?q=o2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var m MetricsResponse
	getJSON(t, http.DefaultClient, srv.URL+"/v1/metrics", &m)

	for _, path := range []string{"/metrics", "/v1/metrics"} {
		resp, err := http.Get(srv.URL + path + "?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Fatalf("%s Content-Type = %q", path, ct)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParsePrometheus(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		hist, ok := fams["serve_http_request_us"]
		if !ok || hist.Type != "histogram" {
			t.Fatalf("%s: serve_http_request_us missing or not a histogram: %+v", path, hist)
		}
		var count, inf float64
		for _, s := range hist.Samples {
			switch {
			case s.Name == "serve_http_request_us_count":
				count = s.Value
			case s.Le == "+Inf":
				inf = s.Value
			}
		}
		if count < n {
			t.Fatalf("%s: http request histogram count = %v, want >= %d", path, count, n)
		}
		if inf != count {
			t.Fatalf("%s: +Inf bucket = %v, want the count %v", path, inf, count)
		}
		sugg, ok := fams["serve_suggest_requests_total"]
		if !ok || sugg.Type != "counter" || len(sugg.Samples) != 1 {
			t.Fatalf("%s: serve_suggest_requests_total missing: %+v", path, sugg)
		}
		// The exposition was scraped after the JSON snapshot, so it can only
		// have grown.
		if got := uint64(sugg.Samples[0].Value); got < m.SuggestRequests {
			t.Fatalf("%s: suggest counter = %d, want >= JSON view %d", path, got, m.SuggestRequests)
		}
	}
}

// TestTracesReturnStageSpans drives cache-miss and cache-hit requests, then
// asserts /v1/traces retains them with per-stage spans that stay inside the
// recorded total — the invariant the ISSUE's acceptance criterion names.
func TestTracesReturnStageSpans(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testRecommender(t), 5))
	defer srv.Close()

	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL + "/suggest?q=o2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var tr TracesResponse
	getJSON(t, http.DefaultClient, srv.URL+"/v1/traces", &tr)
	if tr.Count == 0 || len(tr.Traces) != tr.Count {
		t.Fatalf("traces = %+v, want retained traces with count matching", tr)
	}
	sawStage := false
	for _, v := range tr.Traces {
		if len(v.ID) != 16 {
			t.Fatalf("trace ID = %q, want 16 hex chars", v.ID)
		}
		var sum int64
		for _, s := range v.Spans {
			if s.StartMicros < 0 || s.DurMicros < 0 {
				t.Fatalf("span %+v has negative offset or duration", s)
			}
			// Spans are recorded before Finish stamps the total; allow the
			// microsecond truncation of two independent clock reads.
			if end := s.StartMicros + s.DurMicros; end > v.TotalMicros+2 {
				t.Fatalf("span %+v ends at %dus, after trace total %dus", s, end, v.TotalMicros)
			}
			if s.Name == stageCache || s.Name == stageDescent || s.Name == stageRerank {
				sawStage = true
				sum += s.DurMicros
			}
		}
		if sum > v.TotalMicros+2 {
			t.Fatalf("stage spans sum to %dus, more than trace total %dus", sum, v.TotalMicros)
		}
	}
	if !sawStage {
		t.Fatal("no cache/descent/rerank stage spans in any retained trace")
	}

	// min_us above every total filters everything out; the threshold field
	// stays well-formed.
	var none TracesResponse
	getJSON(t, http.DefaultClient, srv.URL+"/v1/traces?min_us=999999999", &none)
	if none.Count != 0 || len(none.Traces) != 0 {
		t.Fatalf("min_us filter returned %d traces", none.Count)
	}
}

// TestObsEndpointsUnderReloadStorm hammers /suggest, /v1/metrics (JSON and
// Prometheus) and /v1/traces while POST /v1/reload swaps the model as fast
// as it can — the reload-storm race the observability layer must survive
// (run under -race via `make race`).
func TestObsEndpointsUnderReloadStorm(t *testing.T) {
	alt := altRecommender(t)
	h := New(testRecommender(t), Options{
		DefaultN:   5,
		ReloadFunc: func() (core.Recommender, error) { return alt, nil },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()

	const (
		workers = 4
		iters   = 40
	)
	var wg sync.WaitGroup
	fail := make(chan string, workers*4)
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fn(i); err != nil {
					select {
					case fail <- err.Error():
					default:
					}
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		run(func(i int) error { // suggest traffic
			resp, err := client.Get(srv.URL + "/suggest?q=o2&n=" + fmt.Sprint(1+i%5))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("suggest status %d", resp.StatusCode)
			}
			return nil
		})
	}
	run(func(i int) error { // reload storm
		resp, err := client.Post(srv.URL+"/v1/reload", "", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("reload status %d", resp.StatusCode)
		}
		return nil
	})
	run(func(i int) error { // JSON metrics readers
		var m MetricsResponse
		resp, err := client.Get(srv.URL + "/v1/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&m)
	})
	run(func(i int) error { // Prometheus scrapers
		resp, err := client.Get(srv.URL + "/v1/metrics?format=prometheus")
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		_, err = obs.ParsePrometheus(raw)
		return err
	})
	run(func(i int) error { // trace readers
		var tr TracesResponse
		resp, err := client.Get(srv.URL + "/v1/traces?limit=8")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&tr)
	})
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	var m MetricsResponse
	getJSON(t, client, srv.URL+"/v1/metrics", &m)
	if m.Reloads == 0 {
		t.Fatal("no reloads landed during the storm")
	}
	if m.SuggestRequests < workers*iters {
		t.Fatalf("suggest requests = %d, want >= %d", m.SuggestRequests, workers*iters)
	}
	if m.Errors != 0 {
		t.Fatalf("errors = %d during the storm", m.Errors)
	}
}

// TestTraceHeadersSurviveTraceRecycle is the deterministic form of the race
// TestObsEndpointsUnderReloadStorm used to lose one run in two under -race:
// the X-Trace-Id / X-Request-Id response headers are written after the
// handler returned, by which time its pooled trace has been finished and
// restarted for other requests. Held until then (reusableRecorder keeps the
// handler's header values by reference, as net/http does), they must still
// carry this request's ID, not a later request's.
func TestTraceHeadersSurviveTraceRecycle(t *testing.T) {
	// A 16-trace ring fills at once; from then on every finished trace goes
	// straight back to the pool and the next request restarts it.
	h := New(testRecommender(t), Options{Tracer: obs.NewTracer(16, nil)})
	get := func(hdr http.Header) http.Header {
		w := newReusableRecorder()
		req := httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil)
		for k, v := range hdr {
			req.Header[k] = v
		}
		h.ServeHTTP(w, req)
		return w.header
	}
	flush := func(hdr http.Header, key string) string { return strings.Join(hdr[key], ",") }
	for i := 0; i < 32; i++ {
		get(nil)
	}

	held := get(nil)
	wantID := strings.Clone(flush(held, "X-Trace-Id")) // owned: the header's own bytes are what is under test
	if len(wantID) != 16 || flush(held, "X-Request-Id") != wantID {
		t.Fatalf("headers at handler return: X-Trace-Id %q, X-Request-Id %q", wantID, flush(held, "X-Request-Id"))
	}
	adopted := get(http.Header{"X-Trace-Id": {"feedfacecafebeef"}})
	seen := map[string]bool{wantID: true}
	for i := 0; i < 64; i++ { // finish and restart the pooled trace, many times over
		id := strings.Clone(flush(get(nil), "X-Trace-Id"))
		if seen[id] {
			t.Fatalf("request %d reuses trace ID %q", i, id)
		}
		seen[id] = true
	}
	if got := flush(held, "X-Trace-Id"); got != wantID {
		t.Errorf("X-Trace-Id read %q at flush, was %q when the handler returned", got, wantID)
	}
	if got := flush(held, "X-Request-Id"); got != wantID {
		t.Errorf("X-Request-Id read %q at flush, was %q when the handler returned", got, wantID)
	}
	if got := flush(adopted, "X-Trace-Id"); got != "feedfacecafebeef" {
		t.Errorf("adopted X-Trace-Id read %q at flush", got)
	}
}
