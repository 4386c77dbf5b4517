package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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

// slowWriter is a client slow to take its answer: the handler's write, and
// with it the request's total, lasts at least delay.
type slowWriter struct {
	*httptest.ResponseRecorder
	delay time.Duration
}

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseRecorder.Write(p)
}

// TestSlowAndErroredTracesRetained pins what tail sampling keeps once the
// ring is full, now that a GET records one span and not two: a slow GET's
// trace holds exactly its stage span — cache/hit or descent/miss — opening
// with the trace at offset 0 and closing inside the trace's total; an errored
// request's trace is kept, with no stage (it was refused before one); a fast,
// clean one is not.
func TestSlowAndErroredTracesRetained(t *testing.T) {
	// The tracer re-reads its slow threshold when it takes an ID block, the
	// first one included: a histogram that already holds 50 ms samples forces
	// the threshold there from the first request on.
	var slow obs.Histogram
	slow.RecordN(50_000, 100)
	tracer := obs.NewTracer(16, &slow)
	h := New(testRecommender(t), Options{Tracer: tracer})
	get := func(target string, delay time.Duration) (id string, code int) {
		w := slowWriter{httptest.NewRecorder(), delay}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		return w.Header().Get("X-Trace-Id"), w.Code
	}
	retained := func(id string) *obs.TraceView {
		for _, v := range tracer.Snapshot(0, false, 0) {
			if v.ID == id {
				return &v
			}
		}
		return nil
	}
	for i := 0; i < 20; i++ { // fill the ring: until then everything is kept
		get("/suggest?q=o2", 0)
	}
	if th := tracer.SlowThresholdMicros(); th < 50_000 || th > 52_000 {
		t.Fatalf("slow threshold = %d us, want the histogram's 50 ms", th)
	}
	if id, _ := get("/suggest?q=o2", 0); retained(id) != nil {
		t.Fatalf("a fast clean GET was retained with the ring full: %+v", retained(id))
	}

	for _, tc := range []struct{ target, stage, outcome string }{
		{"/suggest?q=o2", stageCache, "hit"},
		{"/suggest?q=o2+mobile", stageDescent, "miss"},
	} {
		id, code := get(tc.target, 60*time.Millisecond)
		v := retained(id)
		if code != http.StatusOK || v == nil || v.Err || v.TotalMicros < 60_000 {
			t.Fatalf("slow %s: status %d, retained trace %+v", tc.target, code, v)
		}
		if len(v.Spans) != 1 {
			t.Fatalf("slow %s: %d spans, want the one stage: %+v", tc.target, len(v.Spans), v.Spans)
		}
		sp := v.Spans[0]
		if sp.Name != tc.stage || sp.Outcome != tc.outcome || sp.Shard != obs.NoShard {
			t.Fatalf("slow %s: span %+v, want %s/%s", tc.target, sp, tc.stage, tc.outcome)
		}
		if sp.StartMicros != 0 || sp.DurMicros < 0 || sp.DurMicros > v.TotalMicros {
			t.Fatalf("slow %s: span %+v does not open with the trace and fit its total %d", tc.target, sp, v.TotalMicros)
		}
	}

	id, code := get("/suggest", 0) // no q: 400
	if v := retained(id); code != http.StatusBadRequest || v == nil || !v.Err || len(v.Spans) != 0 {
		t.Fatalf("errored GET: status %d, retained trace %+v", code, v)
	}
}

// TestInstrumentCountsPinned counts what one request records, registry-wide:
// a direct cached GET is 4 histogram samples (its stage, serve_latency_us,
// serve_http_request_us, serve_route_suggest_us) and 1 span; a batch of 64 is
// 67 samples (its stage, 64 per-context shares in one RecordN, the request
// and route histograms) and 1 span. A fifth record or a second span on the
// GET is the cost this pins out. The GET's three clock reads are not counted
// here: they become countable once the clock is injected (ROADMAP item 3).
func TestInstrumentCountsPinned(t *testing.T) {
	h := NewHandler(testRecommender(t), 5)
	samples := func() (total float64) {
		fams, err := obs.ParsePrometheus(h.Obs().AppendPrometheus(nil))
		if err != nil {
			t.Fatal(err)
		}
		for name, f := range fams {
			for _, s := range f.Samples {
				if f.Type == "histogram" && s.Name == name+"_count" {
					total += s.Value
				}
			}
		}
		return total
	}
	var batch strings.Builder
	batch.WriteString(`{"requests":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		batch.WriteString(`{"context":["o2"]}`)
	}
	batch.WriteString(`]}`)
	serve := func(method, target, body string) (spans []obs.SpanView, recorded float64) {
		before := samples()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rr.Code, rr.Body)
		}
		for _, v := range h.Tracer().Snapshot(0, false, 0) { // the ring is not full: every trace is there
			if v.ID == rr.Header().Get("X-Trace-Id") {
				return v.Spans, samples() - before
			}
		}
		t.Fatalf("%s %s: trace not retained", method, target)
		return nil, 0
	}
	serve(http.MethodGet, "/suggest?q=o2", "") // the miss that fills the cache
	if spans, recorded := serve(http.MethodGet, "/suggest?q=o2", ""); recorded != 4 || len(spans) != 1 || spans[0].Name != stageCache {
		t.Fatalf("cached GET recorded %v histogram samples and spans %+v, want 4 and the cache span", recorded, spans)
	}
	if spans, recorded := serve(http.MethodPost, "/suggest/batch", batch.String()); recorded != 67 || len(spans) != 1 || spans[0].Name != stageBatch {
		t.Fatalf("batch-64 recorded %v histogram samples and spans %+v, want 67 and the batch-descent span", recorded, spans)
	}
}

// TestStagesListedWithoutQueue: the queue stage is gone from both metrics
// views, and the four stages that measure something are still there.
func TestStagesListedWithoutQueue(t *testing.T) {
	h := wireFleet(t, wireModelA(t), true)
	for _, r := range []wireRequest{wireRequests[0], wireRequests[0], wireRequests[4]} { // a miss, a hit (both reranked), a batch
		serveMasked(t, h, r)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var m MetricsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	stages := make([]string, 0, len(m.Stages))
	for name, st := range m.Stages {
		if st.Count == 0 {
			t.Fatalf("stage %q listed with no samples", name)
		}
		stages = append(stages, name)
	}
	slices.Sort(stages)
	if want := []string{stageBatch, stageCache, stageDescent, stageRerank}; !slices.Equal(stages, want) {
		t.Fatalf("/v1/metrics stages = %q, want %q", stages, want)
	}

	fams, err := obs.ParsePrometheus(h.Obs().AppendPrometheus(nil))
	if err != nil {
		t.Fatal(err)
	}
	var families []string
	for name := range fams {
		if strings.HasPrefix(name, "serve_stage_") {
			families = append(families, name)
		}
	}
	slices.Sort(families)
	want := []string{"serve_stage_batch_descent_us", "serve_stage_cache_us", "serve_stage_descent_us", "serve_stage_rerank_us"}
	if !slices.Equal(families, want) {
		t.Fatalf("exposition stage families = %q, want %q", families, want)
	}
}
