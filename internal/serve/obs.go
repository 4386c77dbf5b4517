package serve

import (
	"repro/internal/obs"
)

// Observability wiring for the HTTP handler: histogram instruments and the
// request tracer, which the admin surface (obs.Admin) exposes as the
// Prometheus exposition and the tail-sampled trace endpoint. Recording into
// any of these is lock-free and allocation-free, pinned by
// TestServeHTTPCachedAllocs. Each sample is recorded once, in its finest
// partition — a request's latency by route, a GET's stage by serving arm
// (internal/fleet) — and the coarser families are derived when read. A
// request's spans chain from 0 to its total: a GET's stage then write, a
// batch's parse, batch-descent, then write, anything else's write alone.

// Stage and span names are package-level constants so every span carries a
// static string (retained traces must not reference request state).
const (
	stageCache   = "cache"
	stageDescent = "descent"
	stageBatch   = "batch-descent"
	stageParse   = "parse"
	stageWrite   = "write"
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
	h.histRouteSuggest = h.obs.Histogram("serve_route_suggest_us")
	h.histRouteBatch = h.obs.Histogram("serve_route_batch_us")
	h.histRouteAdmin = h.obs.Histogram("serve_route_admin_us")
	h.histCache = h.obs.Histogram("serve_stage_cache_us")
	h.histDescent = h.obs.Histogram("serve_stage_descent_us")
	h.histBatchDescent = h.obs.Histogram("serve_stage_batch_descent_us")
	for _, arm := range h.rt.Arms() {
		c, d := arm.Stages()
		h.histCache.Derive(c)
		h.histDescent.Derive(d)
	}
	// Derived in place: a tracer built on it before this handler, as
	// cmd/serve builds one, reads the routes' sum as its slow threshold.
	request := h.obs.Histogram("serve_http_request_us")
	request.Derive(h.histRouteSuggest, h.histRouteBatch, h.histRouteAdmin)
	h.tracer = h.opts.Tracer
	if h.tracer == nil {
		h.tracer = obs.NewTracer(256, request)
	}
	h.obs.CounterFunc("serve_requests_total", h.m.requests.Load)
	h.obs.CounterFunc("serve_suggest_requests_total", h.suggestRequests)
	h.obs.CounterFunc("serve_batch_requests_total", h.histBatchDescent.Count)
	h.obs.CounterFunc("serve_batch_contexts_total", h.m.batchContexts.Load)
	h.obs.CounterFunc("serve_errors_total", h.m.errors.Load)
	h.obs.CounterFunc("serve_panics_total", h.m.panics.Load)
	h.obs.CounterFunc("serve_reloads_total", h.swaps)
	h.obs.CounterFunc("serve_cache_hits_total", func() uint64 { return h.cache.Stats().Hits })
	h.obs.CounterFunc("serve_cache_misses_total", func() uint64 { return h.cache.Stats().Misses })
	h.obs.CounterFunc("serve_cache_evictions_total", func() uint64 { return h.cache.Stats().Evictions })
	h.obs.CounterFunc("serve_cache_refused_total", func() uint64 { return h.cache.Stats().Refused })
	h.obs.GaugeFunc("serve_cache_hit_rate", func() float64 { return h.cache.Stats().HitRate() })
	h.admin = obs.Admin{Registry: h.obs, Tracer: h.tracer, Health: h.health, Metrics: h.metricsHandler}
}

// suggestRequests counts the GET /suggest requests served: each recorded one
// stage sample.
func (h *Handler) suggestRequests() uint64 { return h.histCache.Count() + h.histDescent.Count() }

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
