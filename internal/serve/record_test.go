package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fourRecordPath is the instrument as it was before each sample was recorded
// once, kept as the oracle of the derived families: a GET recorded its stage
// into serve_stage_{cache,descent}_us and into the serving arm's latency,
// bumped a request counter, and recorded its request into
// serve_http_request_us and its route's histogram; a batch recorded its stage
// into serve_stage_batch_descent_us, bumped its own counter and recorded its
// request into both request histograms; any other request, its request into
// both.
type fourRecordPath struct {
	reg                          *obs.Registry
	http, suggest, batch, admin  *obs.Histogram
	cache, descent, batchDescent *obs.Histogram
	arms                         []obs.Histogram
	suggests, batches            uint64
	stageByHit                   map[bool]*obs.Histogram
}

func newFourRecordPath(arms int) *fourRecordPath {
	reg := obs.NewRegistry()
	o := &fourRecordPath{
		reg:          reg,
		http:         reg.Histogram("serve_http_request_us"),
		suggest:      reg.Histogram("serve_route_suggest_us"),
		batch:        reg.Histogram("serve_route_batch_us"),
		admin:        reg.Histogram("serve_route_admin_us"),
		cache:        reg.Histogram("serve_stage_cache_us"),
		descent:      reg.Histogram("serve_stage_descent_us"),
		batchDescent: reg.Histogram("serve_stage_batch_descent_us"),
		arms:         make([]obs.Histogram, arms),
	}
	o.stageByHit = map[bool]*obs.Histogram{true: o.cache, false: o.descent}
	reg.CounterFunc("serve_suggest_requests_total", func() uint64 { return o.suggests })
	reg.CounterFunc("serve_batch_requests_total", func() uint64 { return o.batches })
	return o
}

func (o *fourRecordPath) get(arm int, hit bool, took, elapsed int64) {
	o.stageByHit[hit].Record(took)
	o.suggests++
	o.arms[arm].Record(took)
	o.http.Record(elapsed)
	o.suggest.Record(elapsed)
}

func (o *fourRecordPath) postBatch(stage, elapsed int64) {
	o.batchDescent.Record(stage)
	o.batches++
	o.http.Record(elapsed)
	o.batch.Record(elapsed)
}

func (o *fourRecordPath) other(elapsed int64) {
	o.http.Record(elapsed)
	o.admin.Record(elapsed)
}

// comparedFamilies are the exposition families the oracle records: every
// serve latency histogram and the GET and batch counts.
var comparedFamilies = []string{
	"serve_http_request_us", "serve_route_admin_us", "serve_route_batch_us", "serve_route_suggest_us",
	"serve_stage_batch_descent_us", "serve_stage_cache_us", "serve_stage_descent_us",
	"serve_batch_requests_total", "serve_suggest_requests_total",
}

// exposedFamilies returns the exposition's lines of comparedFamilies, in
// exposition order.
func exposedFamilies(text []byte) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(string(text), "\n") {
		name := strings.TrimPrefix(line, "# TYPE ")
		for _, f := range comparedFamilies {
			if rest, ok := strings.CutPrefix(name, f); ok && (strings.HasPrefix(rest, " ") ||
				strings.HasPrefix(rest, "_bucket{") || strings.HasPrefix(rest, "_sum ") || strings.HasPrefix(rest, "_count ")) {
				out.WriteString(line)
			}
		}
	}
	return out.String()
}

// TestOneRecordPathMatchesFourRecordOracle feeds the handler's recording
// calls — the serving arm's RecordServe, the batch stage's record and the
// route histogram finish records into — and the four-record oracle one
// seeded stream of (route, arm, hit/miss, µs) samples over a two-arm fleet.
// The exposition of every serve latency family and of the GET count must be
// byte-identical, and /v1/metrics' latency, stage, arm, suggest_requests and
// batch_requests fields equal.
func TestOneRecordPathMatchesFourRecordOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		h, rt := newFleetHandler(t, 1, 1, false)
		o := newFourRecordPath(len(rt.Arms()))
		rng := rand.New(rand.NewSource(seed))
		us := func(scale float64) int64 { return int64(math.Exp(rng.Float64() * scale)) }
		for i := 0; i < 3000; i++ {
			took := us(14)
			elapsed := took + us(10)
			switch r := rng.Intn(10); {
			case r < 7:
				arm, hit := rng.Intn(len(rt.Arms())), rng.Intn(3) > 0
				rt.RecordServe(arm, hit, took)
				h.routeHistogram("/suggest").Record(elapsed)
				o.get(arm, hit, took, elapsed)
			case r < 9:
				h.histBatchDescent.Record(took)
				h.routeHistogram("/suggest/batch").Record(elapsed)
				o.postBatch(took, elapsed)
			default:
				h.routeHistogram("/v1/models").Record(elapsed)
				o.other(elapsed)
			}
		}

		got, want := exposedFamilies(h.Obs().AppendPrometheus(nil)), exposedFamilies(o.reg.AppendPrometheus(nil))
		if got != want || strings.Count(want, "# TYPE") != len(comparedFamilies) {
			t.Fatalf("seed %d: exposition\n%s\nwant (four-record oracle)\n%s", seed, got, want)
		}

		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		var m MetricsResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		lat := stageStats(o.suggest)
		if m.LatencySamples != int(lat.Count) || m.P50Micros != lat.P50Micros || m.P90Micros != o.suggest.Quantile(0.90) ||
			m.P99Micros != lat.P99Micros || m.P999Micros != lat.P999Micros || m.MaxMicros != lat.MaxMicros {
			t.Fatalf("seed %d: latency fields %+v, want %+v (p90 %d)", seed, m, lat, o.suggest.Quantile(0.90))
		}
		if m.SuggestRequests != o.suggests || m.BatchRequests != o.batches {
			t.Fatalf("seed %d: suggest_requests = %d, batch_requests = %d, want %d and %d",
				seed, m.SuggestRequests, m.BatchRequests, o.suggests, o.batches)
		}
		wantStages := map[string]StageStats{
			stageCache:   stageStats(o.cache),
			stageDescent: stageStats(o.descent),
			stageBatch:   stageStats(o.batchDescent),
		}
		if len(m.Stages) != len(wantStages) {
			t.Fatalf("seed %d: stages %+v, want %+v", seed, m.Stages, wantStages)
		}
		for name, want := range wantStages {
			if m.Stages[name] != want {
				t.Fatalf("seed %d: stage %s = %+v, want %+v", seed, name, m.Stages[name], want)
			}
		}
		for i, arm := range m.Fleet.Arms {
			want := stageStats(&o.arms[i])
			if got := (StageStats{arm.Requests, arm.P50Micros, arm.P99Micros, arm.P999Micros, arm.MaxMicros}); got != want {
				t.Fatalf("seed %d: arm %s = %+v, want %+v", seed, arm.Name, got, want)
			}
		}
	}
}

// batchBody is a batch of n copies of one context.
func batchBody(ctx string, n int) string {
	var b strings.Builder
	b.WriteString(`{"requests":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"context":["` + ctx + `"]}`)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestSpansChainFromZeroToTotal: every recorded trace's spans partition its
// request exactly — the first opens at 0, each opens where the one before it
// closed, and the last closes at the trace's total — from readings the
// request takes anyway: a GET's stage, then write; a batch's parse,
// batch-descent, then write; a refused request's write alone.
func TestSpansChainFromZeroToTotal(t *testing.T) {
	h := New(testRecommender(t), Options{})
	for _, tc := range []struct {
		name, method, target, body string
		code                       int
		spans                      []string
	}{
		{"refused miss", http.MethodGet, "/suggest?q=o2", "", http.StatusOK, []string{stageDescent, stageWrite}},
		{"stored miss", http.MethodGet, "/suggest?q=o2", "", http.StatusOK, []string{stageDescent, stageWrite}},
		{"hit", http.MethodGet, "/suggest?q=o2", "", http.StatusOK, []string{stageCache, stageWrite}},
		{"batch-64", http.MethodPost, "/suggest/batch", batchBody("o2", 64), http.StatusOK, []string{stageParse, stageBatch, stageWrite}},
		{"400", http.MethodGet, "/suggest", "", http.StatusBadRequest, []string{stageWrite}},
		{"batch 400", http.MethodPost, "/suggest/batch", `{"requests":[`, http.StatusBadRequest, []string{stageWrite}},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if rr.Code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, rr.Code, tc.code)
		}
		var v *obs.TraceView
		for _, tv := range h.Tracer().Snapshot(0, false, 0) { // the ring is not full: every trace is there
			if tv.ID == rr.Header().Get("X-Trace-Id") {
				v = &tv
				break
			}
		}
		if v == nil {
			t.Fatalf("%s: trace not retained", tc.name)
		}
		names := make([]string, len(v.Spans))
		for i, sp := range v.Spans {
			names[i] = sp.Name
		}
		if !slices.Equal(names, tc.spans) {
			t.Fatalf("%s: spans %q, want %q", tc.name, names, tc.spans)
		}
		at := int64(0)
		for _, sp := range v.Spans {
			if sp.StartMicros != at || sp.DurMicros < 0 || sp.Shard != obs.NoShard {
				t.Fatalf("%s: span %+v does not open at %d µs, where the chain stands: %+v", tc.name, sp, at, v.Spans)
			}
			at += sp.DurMicros
		}
		if at != v.TotalMicros {
			t.Fatalf("%s: the chain ends at %d µs, the trace at %d: %+v", tc.name, at, v.TotalMicros, v.Spans)
		}
		if write := v.Spans[len(v.Spans)-1]; (write.Outcome == "error") != (tc.code >= 400) || v.Err != (tc.code >= 400) {
			t.Fatalf("%s: write span %+v, trace error %v, for status %d", tc.name, write, v.Err, tc.code)
		}
	}
}

// TestStatusWriterRecycleKeepsTraceHeader is the handler's twin of the shard
// router's TestRouterTraceHeaderSurvivesTraceRecycle: the X-Trace-Id response
// header — GET, batch and refused request, generated or adopted — is written
// after the handler returned and its pooled statusWriter, trace recorder
// included, was restarted for later requests. Held until then (the recorder
// keeps the handler's header values by reference, as net/http does), it must
// still read this request's ID.
func TestStatusWriterRecycleKeepsTraceHeader(t *testing.T) {
	// A 16-trace ring fills at once: from then on no trace is retained and
	// every writer goes straight back to the pool.
	h := New(testRecommender(t), Options{Tracer: obs.NewTracer(16, nil)})
	batch := batchBody("o2", 8)
	do := func(method, target, body, inbound string) *reusableRecorder {
		w := newReusableRecorder()
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		if inbound != "" {
			req.Header["X-Trace-Id"] = []string{inbound}
		}
		h.ServeHTTP(w, req)
		return w
	}
	traceID := func(w *reusableRecorder) string { return strings.Join(w.header["X-Trace-Id"], ",") }
	churn := func(n int) {
		for i := 0; i < n; i++ {
			do(http.MethodGet, "/suggest?q=o2", "", "")
			do(http.MethodPost, "/suggest/batch", batch, "")
			do(http.MethodGet, "/suggest", "", "")
		}
	}
	churn(32)
	type held struct {
		name string
		w    *reusableRecorder
		want string
	}
	var helds []held
	for _, tc := range []struct{ name, method, target, body, inbound string }{
		{"GET", http.MethodGet, "/suggest?q=o2", "", ""},
		{"GET adopted", http.MethodGet, "/suggest?q=o2", "", "feedfacecafebeef"},
		{"batch", http.MethodPost, "/suggest/batch", batch, ""},
		{"batch adopted", http.MethodPost, "/suggest/batch", batch, "0123456789abcdef"},
		{"400", http.MethodGet, "/suggest", "", ""},
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

// TestTracerThresholdFromDerivedRequestHistogram: serve_http_request_us is
// recorded by no one — it is the routes' sum — yet the tracer's slow
// threshold reads it, whether the tracer was built on the registry's
// histogram before New derived it (the wiring of cmd/serve and of the
// benchmark) or by New itself.
func TestTracerThresholdFromDerivedRequestHistogram(t *testing.T) {
	oreg := obs.NewRegistry()
	early := obs.NewTracer(512, oreg.Histogram("serve_http_request_us"))
	for name, h := range map[string]*Handler{
		"built before New": New(testRecommender(t), Options{Obs: oreg, Tracer: early}),
		"built by New":     New(testRecommender(t), Options{}),
	} {
		for i := 0; i < 49; i++ {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil))
		}
		// One slow request: the 50th sample is the p99, and its finish ends
		// far enough past the first to re-read the threshold.
		h.ServeHTTP(slowWriter{httptest.NewRecorder(), 2 * time.Millisecond}, httptest.NewRequest(http.MethodGet, "/suggest?q=o2", nil))
		if th := h.Tracer().SlowThresholdMicros(); th < 2000 || th == math.MaxInt64 {
			t.Fatalf("%s: slow threshold = %d µs after a 2 ms request, want its latency", name, th)
		}
	}
}
