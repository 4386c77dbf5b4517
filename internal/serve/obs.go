package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// Observability wiring for the HTTP handler: histogram instruments and the
// pooled request tracer, which the admin surface (obs.Admin) exposes as the
// Prometheus exposition and the tail-sampled trace endpoint. The hot-path
// contract is unchanged — recording into any of these is lock-free and
// allocation-free, gated by BenchmarkServeHTTPCachedTraced.

// Stage and span names are package-level constants so every span carries a
// static string (retained traces must not reference request state).
const (
	stageCache   = "cache"
	stageDescent = "descent"
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
	h.histHTTP = h.obs.Histogram("serve_http_request_us")
	h.histRouteSuggest = h.obs.Histogram("serve_route_suggest_us")
	h.histRouteBatch = h.obs.Histogram("serve_route_batch_us")
	h.histRouteAdmin = h.obs.Histogram("serve_route_admin_us")
	h.histCache = h.obs.Histogram("serve_stage_cache_us")
	h.histDescent = h.obs.Histogram("serve_stage_descent_us")
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
	h.admin = obs.Admin{Registry: h.obs, Tracer: h.tracer, Health: h.health, Metrics: h.metricsHandler}
}

// stageBreakdown assembles the per-stage latency map for /v1/metrics,
// omitting stages that have recorded nothing (descent on an all-hit
// workload).
func (h *Handler) stageBreakdown() map[string]StageStats {
	out := make(map[string]StageStats, 3)
	for _, s := range [...]struct {
		name string
		hist *obs.Histogram
	}{
		{stageCache, h.histCache},
		{stageDescent, h.histDescent},
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
