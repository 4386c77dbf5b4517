package serve

import (
	"runtime"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// metrics aggregates the handler's serving counters. Latency moved out of
// the old 4096-sample mutex ring into lock-free obs.Histogram instruments
// on the Handler (full-range, mergeable, p999-capable).
type metrics struct {
	requests      atomic.Uint64 // every HTTP request
	batchContexts atomic.Uint64 // contexts answered across batch requests
	errors        atomic.Uint64 // responses with status >= 400
	panics        atomic.Uint64 // panics recovered by middleware
}

// RuntimeStats is the allocation and GC slice of /v1/metrics. Load generators
// diff two snapshots to attribute allocation and pause cost to a traffic
// window — the way serving-path allocation regressions surface in load tests
// rather than only in microbenchmarks.
type RuntimeStats struct {
	HeapAllocBytes     uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes    uint64 `json:"total_alloc_bytes"`
	Mallocs            uint64 `json:"mallocs"`
	NumGC              uint32 `json:"num_gc"`
	GCPauseTotalMicros uint64 `json:"gc_pause_total_us"`
	NumGoroutines      int    `json:"num_goroutines"`
}

// readRuntimeStats snapshots the process allocator and GC counters. The
// /v1/metrics path is cold, so the brief ReadMemStats stop-the-world is fine.
func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		HeapAllocBytes:     ms.HeapAlloc,
		TotalAllocBytes:    ms.TotalAlloc,
		Mallocs:            ms.Mallocs,
		NumGC:              ms.NumGC,
		GCPauseTotalMicros: ms.PauseTotalNs / 1000,
		NumGoroutines:      runtime.NumGoroutine(),
	}
}

// StageStats is one per-stage latency row in /v1/metrics: the latency of a
// single serving stage (cache lookup, predict descent, batch descent)
// read from its dedicated histogram.
type StageStats struct {
	Count      uint64 `json:"count"`
	P50Micros  int64  `json:"p50_us"`
	P99Micros  int64  `json:"p99_us"`
	P999Micros int64  `json:"p999_us"`
	MaxMicros  int64  `json:"max_us"`
}

// stageStats reads one histogram into a StageStats row.
func stageStats(h *obs.Histogram) StageStats {
	return StageStats{
		Count:      h.Count(),
		P50Micros:  h.Quantile(0.50),
		P99Micros:  h.Quantile(0.99),
		P999Micros: h.Quantile(0.999),
		MaxMicros:  h.Max(),
	}
}

// MetricsResponse is the GET /v1/metrics JSON payload: request counters, cache
// effectiveness, /suggest latency quantiles (latency_*, read from the GET
// route's full-history histogram serve_route_suggest_us), per-stage latency
// breakdowns, and process allocation/GC counters.
type MetricsResponse struct {
	Requests        uint64                `json:"requests"`
	SuggestRequests uint64                `json:"suggest_requests"`
	BatchRequests   uint64                `json:"batch_requests"`
	BatchContexts   uint64                `json:"batch_contexts"`
	Errors          uint64                `json:"errors"`
	Panics          uint64                `json:"panics"`
	Reloads         uint64                `json:"reloads"` // successful model swaps, every slot's
	Cache           cache.Stats           `json:"cache"`
	CacheHitRate    float64               `json:"cache_hit_rate"`
	LatencySamples  int                   `json:"latency_samples"`
	P50Micros       int64                 `json:"latency_p50_us"`
	P90Micros       int64                 `json:"latency_p90_us"`
	P99Micros       int64                 `json:"latency_p99_us"`
	P999Micros      int64                 `json:"latency_p999_us"`
	MaxMicros       int64                 `json:"latency_max_us"`
	Stages          map[string]StageStats `json:"stages,omitempty"`
	ModelGeneration uint64                `json:"model_generation"`
	KnownQueries    int                   `json:"known_queries"`
	CompiledNodes   int                   `json:"compiled_nodes"`
	Quantised       bool                  `json:"compiled_quantised"`
	BlobBytes       int64                 `json:"model_blob_bytes,omitempty"`
	Fleet           *FleetMetrics         `json:"fleet,omitempty"`
	Ingest          any                   `json:"ingest,omitempty"`
	UptimeSeconds   float64               `json:"uptime_seconds"`
	Runtime         RuntimeStats          `json:"runtime"`
}

// FleetMetrics is the fleet slice of /v1/metrics: per-arm traffic share,
// request counts and latency quantiles (the raw material for an offline
// NDCG-style comparison of logged answers per arm), plus shadow divergence.
type FleetMetrics struct {
	Arms    []fleet.ArmStats    `json:"arms"`
	Shadows []fleet.ShadowStats `json:"shadows,omitempty"`
}
