package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"repro/internal/jsonspan"
)

// The HTTP side of the instruments: the one admin surface every process
// mounts — the single handler, the shard router and cmd/ingest's listener —
// and the two writers every handler answers with.

// JSONContentType is the application/json Content-Type header value, shared —
// by these writers and the hot paths of internal/serve and internal/fleet —
// for allocation-free header assignment: never written to.
var JSONContentType = []string{"application/json"}

// promContentType is the Content-Type of the text exposition (version 0.0.4).
var promContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}

// WriteJSON answers status with v encoded by encoding/json — the cold
// endpoints' writer (the hot paths append their bodies by hand).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = JSONContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers a non-2xx with the error envelope
// {"error":{"code","message"}} from its one encoder (jsonspan.AppendError),
// so every handler refuses with the same bytes.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header()["Content-Type"] = JSONContentType
	w.WriteHeader(status)
	w.Write(jsonspan.AppendError([]byte{'{'}, code, msg))
}

// allowGET answers 405 to anything but a GET and reports whether the request
// may go on.
func allowGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
	return false
}

// ServeHTTP serves the Prometheus text exposition of every registered
// instrument (AppendPrometheus).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !allowGET(w, req) {
		return
	}
	w.Header()["Content-Type"] = promContentType
	w.Write(r.AppendPrometheus(nil))
}

// TracesResponse is the GET /v1/traces payload: the tail-sampled retained
// traces (newest first) and the live slow-retention threshold.
type TracesResponse struct {
	// SlowThresholdMicros is the current p99-based retention threshold;
	// traces at least this slow are always kept. Omitted until the
	// slow-source histogram has data.
	SlowThresholdMicros int64 `json:"slow_threshold_us,omitempty"`
	// Count is the number of traces returned after filtering.
	Count int `json:"count"`
	// Traces holds the retained traces, newest first.
	Traces []TraceView `json:"traces"`
}

// ServeHTTP serves GET /v1/traces: the retained traces as a TracesResponse.
// Query parameters: min_us=<int> keeps traces at least that slow, error=1 (or
// true) the errored ones only, limit=<int> caps the count. A malformed
// integer is a 400.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !allowGET(w, r) {
		return
	}
	q := r.URL.Query()
	var n [2]int64 // min_us, limit
	for i, key := range [...]string{"min_us", "limit"} {
		if v := q.Get(key); v != "" {
			var err error
			if n[i], err = strconv.ParseInt(v, 10, 64); err != nil {
				WriteError(w, http.StatusBadRequest, "bad_request", key+" must be an integer")
				return
			}
		}
	}
	onlyErrors := q.Get("error") == "1" || q.Get("error") == "true"
	views := t.Snapshot(n[0], onlyErrors, int(n[1]))
	resp := TracesResponse{Count: len(views), Traces: views}
	if th := t.SlowThresholdMicros(); th < math.MaxInt64 {
		resp.SlowThresholdMicros = th
	}
	WriteJSON(w, http.StatusOK, resp)
}

// Admin is the admin HTTP surface, with one path rule for every process that
// mounts it:
//
//	/healthz, /v1/healthz  Health, on both paths: liveness probes do not follow redirects
//	/metrics               the Prometheus text exposition, always: scrapers hit it
//	/v1/metrics            Metrics (JSON), or the exposition with ?format=prometheus
//	/v1/traces             the Tracer's retained traces
//
// Every other admin endpoint lives only under /v1/ and belongs to the
// mounting handler, which routes its own paths first and hands the rest to
// ServeHTTP: a path nobody claims is a 404 envelope.
type Admin struct {
	// Registry is rendered on /metrics and /v1/metrics?format=prometheus.
	Registry *Registry
	// Tracer answers /v1/traces.
	Tracer *Tracer
	// Health answers /healthz and /v1/healthz.
	Health http.HandlerFunc
	// Metrics answers a GET of /v1/metrics with the process's JSON view.
	Metrics http.HandlerFunc
}

// ServeHTTP routes the shared admin paths by the rule above.
func (a *Admin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz", "/v1/healthz":
		a.Health(w, r)
	case "/v1/metrics":
		if r.URL.Query().Get("format") != "prometheus" {
			if allowGET(w, r) {
				a.Metrics(w, r)
			}
			return
		}
		a.Registry.ServeHTTP(w, r)
	case "/metrics":
		a.Registry.ServeHTTP(w, r)
	case "/v1/traces":
		a.Tracer.ServeHTTP(w, r)
	default:
		WriteError(w, http.StatusNotFound, "not_found", "no such endpoint")
	}
}
