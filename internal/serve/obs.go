package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Observability wiring for the HTTP handler: histogram instruments, the
// pooled request tracer, the Prometheus exposition and the tail-sampled
// trace endpoint. The hot-path contract is unchanged — recording into any
// of these is lock-free and allocation-free, gated by
// BenchmarkServeHTTPCachedTraced.

// Stage and span names are package-level constants so every span carries a
// static string (retained traces must not reference request state).
const (
	stageCache   = "cache"
	stageDescent = "descent"
	stageRerank  = "rerank"
	stageBatch   = "batch-descent"
	stageShadow  = "shadow"
)

// initObs creates (or adopts, via Options) the handler's registry and
// tracer and resolves every instrument handle once, so the request path
// never takes the registry lock.
func (h *Handler) initObs() {
	h.obs = h.opts.Obs
	if h.obs == nil {
		h.obs = obs.NewRegistry()
	}
	h.histServe = h.obs.Histogram("serve_latency_us")
	h.histHTTP = h.obs.Histogram("serve_http_request_us")
	h.histRouteSuggest = h.obs.Histogram("serve_route_suggest_us")
	h.histRouteBatch = h.obs.Histogram("serve_route_batch_us")
	h.histRouteAdmin = h.obs.Histogram("serve_route_admin_us")
	h.histCache = h.obs.Histogram("serve_stage_cache_us")
	h.histDescent = h.obs.Histogram("serve_stage_descent_us")
	h.histRerank = h.obs.Histogram("serve_stage_rerank_us")
	h.histBatchDescent = h.obs.Histogram("serve_stage_batch_descent_us")
	h.tracer = h.opts.Tracer
	if h.tracer == nil {
		h.tracer = obs.NewTracer(256, h.histHTTP)
	}
	h.obs.CounterFunc("serve_requests_total", h.m.requests.Load)
	h.obs.CounterFunc("serve_suggest_requests_total", h.m.suggests.Load)
	h.obs.CounterFunc("serve_batch_requests_total", h.m.batches.Load)
	h.obs.CounterFunc("serve_batch_contexts_total", h.m.batchContexts.Load)
	h.obs.CounterFunc("serve_errors_total", h.m.errors.Load)
	h.obs.CounterFunc("serve_panics_total", h.m.panics.Load)
	h.obs.CounterFunc("serve_reloads_total", h.m.reloads.Load)
	h.obs.GaugeFunc("serve_cache_hit_rate", func() float64 { return h.cache.Stats().HitRate() })
}

// stageBreakdown assembles the per-stage latency map for /v1/metrics,
// omitting stages that have recorded nothing (rerank without a reranker,
// descent on an all-hit workload).
func (h *Handler) stageBreakdown() map[string]StageStats {
	out := make(map[string]StageStats, 4)
	for _, s := range [...]struct {
		name string
		hist *obs.Histogram
	}{
		{stageCache, h.histCache},
		{stageDescent, h.histDescent},
		{stageRerank, h.histRerank},
		{stageBatch, h.histBatchDescent},
	} {
		if s.hist.Count() > 0 {
			out[s.name] = stageStats(s.hist)
		}
	}
	return out
}

// Obs returns the handler's metric registry (for wiring shared subsystems
// and for tests).
func (h *Handler) Obs() *obs.Registry { return h.obs }

// Tracer returns the handler's request tracer.
func (h *Handler) Tracer() *obs.Tracer { return h.tracer }

// traceOf recovers the request's trace from the instrumented writer: route
// is only ever reached through instrument, so every handler's writer is one.
func traceOf(w http.ResponseWriter) *obs.Trace { return w.(*statusWriter).tr }

// recordStage records a completed serving stage, which opened start after
// the trace did (a Trace.Elapsed read, or 0), into the request trace and the
// stage histogram.
func recordStage(tr *obs.Trace, hist *obs.Histogram, name string, start time.Duration, durMicros int64, outcome string) {
	hist.Record(durMicros)
	tr.Record(name, start.Microseconds(), durMicros, obs.NoShard, outcome)
}

// prometheusHandler serves the text exposition of every registered
// instrument (GET /metrics?format=prometheus and
// /v1/metrics?format=prometheus).
func (h *Handler) prometheusHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	w.Header()["Content-Type"] = fleet.PrometheusContentType
	w.Write(h.obs.AppendPrometheus(nil))
}

// TracesResponse is the GET /v1/traces payload: the tail-sampled retained
// traces (newest first) and the live slow-retention threshold.
type TracesResponse struct {
	// SlowThresholdMicros is the current p99-based retention threshold;
	// traces at least this slow are always kept.
	SlowThresholdMicros int64 `json:"slow_threshold_us,omitempty"`
	// Count is the number of traces returned after filtering.
	Count int `json:"count"`
	// Traces holds the retained traces, newest first.
	Traces []obs.TraceView `json:"traces"`
}

// tracesHandler serves GET /v1/traces. Query parameters: min_us=<int>
// filters to traces at least that slow, error=1 to errored traces only,
// limit=<int> caps the result count.
func (h *Handler) tracesHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	q := r.URL.Query()
	minUS, err := parseOptInt(q.Get("min_us"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "min_us must be an integer")
		return
	}
	limit, err := parseOptInt(q.Get("limit"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "limit must be an integer")
		return
	}
	onlyErr := q.Get("error") == "1" || q.Get("error") == "true"
	views := h.tracer.Snapshot(minUS, onlyErr, int(limit))
	resp := TracesResponse{Count: len(views), Traces: views}
	if th := h.tracer.SlowThresholdMicros(); th < int64(1)<<62 {
		resp.SlowThresholdMicros = th
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseOptInt parses an optional integer query parameter ("" reads as 0).
func parseOptInt(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
