package main

// The benchmark's fixed definitions: workloads, end-to-end metrics with
// their regression bounds, and the per-layer metric names. BENCHMARK.json at
// the repository root repeats them for the driver (see manifest.go).

// workload is one closed-loop traffic mix replayed lap after lap.
type workload struct {
	name string
	why  string
	// router drives fleet.ShardRouter over three loopback shards at R=2 (the
	// handler `cmd/serve -role router -shards 3 -replicas 2` builds) instead
	// of the single-model serve.Handler.
	router bool
	// batch sends POST /v1/suggest/batch with 64 contexts per request
	// instead of one GET /suggest per context.
	batch bool
	// distinct cycles through contexts that are pairwise distinct after
	// interning; otherwise the lap is the held-out stream in generation
	// order, whose repeats follow the log's own popularity power law.
	distinct bool
	// cacheDiv sizes the result cache at (distinct contexts per lap) /
	// cacheDiv; 0 keeps cmd/serve's default capacity.
	cacheDiv int
	// contexts per lap, a multiple of batchSize. Sized so a quiet lap takes 10–14 ms
	// on the reference sandbox; fixed so every commit replays the same work.
	contexts int
}

const (
	batchSize = 64
	topN      = 5
	// trainSessions is the size of the generated training log.
	trainSessions = 100000
	// reductionThreshold matches the verify skill's `train -threshold 2`.
	reductionThreshold = 2
)

var workloads = []workload{
	{
		name:     "get_zipf",
		why:      "GET /suggest, popularity-sampled contexts, cache at 1/4 of the lap's distinct contexts: serve parse/encode, interning and cache reads dominate, descent little",
		cacheDiv: 4,
		contexts: 4608,
	},
	{
		name:     "get_miss",
		why:      "GET /suggest over a cycle of distinct contexts with cache at 1/8 of them, 0% hits: single-context descent plus cache insert/evict, the path get_zipf mostly bypasses",
		distinct: true,
		cacheDiv: 8,
		contexts: 4096,
	},
	{
		name:     "batch_miss",
		why:      "POST batch-64 over the same distinct cycle, 0% hits: batch JSON split, PredictBatch and batch encode dominate; GET parse and cache hits do nothing",
		batch:    true,
		distinct: true,
		cacheDiv: 8,
		contexts: 6144,
	},
	{
		name:     "ring_get",
		why:      "GET through the 3-shard R=2 loopback router, shard caches warm: isolates the router hop (hash, ring lookup, breaker, exchange, spans); ring_get minus get_zipf is the hop",
		router:   true,
		contexts: 1792,
	},
	{
		name:     "ring_batch",
		why:      "batch-64 through the same router, shard caches warm: split-by-ring, concurrent sub-batches and in-order merge dominate; descent and cache writes do nothing",
		router:   true,
		batch:    true,
		contexts: 6144,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricSpec{
	{"ctx_per_s", "1/s", "higher", 0.15},
	{"rss_mb", "MiB", "lower", 0.10},
	{"hit_at_5", "ratio", "higher", 0.06},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricSpec{
	{name: "query.intern_ns", unit: "ns", better: "lower"},
	{name: "cache.hit_ns", unit: "ns", better: "lower"},
	{name: "cache.miss_put_ns", unit: "ns", better: "lower"},
	{name: "cache.hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.evictions_per_ctx", unit: "count", better: "lower"},
	{name: "cache.entries", unit: "count", better: "lower"},
	{name: "compiled.descent_ns", unit: "ns", better: "lower"},
	{name: "compiled.batch_descent_ns_per_ctx", unit: "ns", better: "lower"},
	{name: "compiled.batch_parallel_x", unit: "ratio", better: "higher"},
	{name: "compiled.blob_bytes", unit: "bytes", better: "lower"},
	{name: "compiled.nodes", unit: "count", better: "lower"},
	{name: "core.suggest_ns", unit: "ns", better: "lower"},
	{name: "core.load_ms", unit: "ms", better: "lower"},
	{name: "core.train_s", unit: "s", better: "lower"},
	{name: "core.save_ms", unit: "ms", better: "lower"},
	{name: "core.model_file_bytes", unit: "bytes", better: "lower"},
	{name: "jsonspan.split_ns_per_ctx", unit: "ns", better: "lower"},
	{name: "serve.get_ns", unit: "ns", better: "lower"},
	{name: "serve.get_self_ns", unit: "ns", better: "lower"},
	{name: "serve.batch_ns_per_ctx", unit: "ns", better: "lower"},
	{name: "serve.batch_self_ns_per_ctx", unit: "ns", better: "lower"},
	{name: "serve.reload_ms", unit: "ms", better: "lower"},
	{name: "serve.stage_cache_p50_us", unit: "us", better: "lower"},
	{name: "serve.stage_descent_p50_us", unit: "us", better: "lower"},
	{name: "serve.stage_batch_descent_p50_us", unit: "us", better: "lower"},
	{name: "serve.unaccounted_ns", unit: "ns", better: "lower"},
	{name: "fleet.ring_lookup_ns", unit: "ns", better: "lower"},
	{name: "fleet.exchange_ns", unit: "ns", better: "lower"},
	{name: "fleet.router_get_self_ns", unit: "ns", better: "lower"},
	{name: "fleet.router_batch_self_ns_per_ctx", unit: "ns", better: "lower"},
	{name: "fleet.subbatches_per_batch", unit: "count", better: "lower"},
	{name: "fleet.failovers", unit: "count", better: "lower"},
	{name: "fleet.route_ab_ns", unit: "ns", better: "lower"},
	{name: "obs.hist_record_ns", unit: "ns", better: "lower"},
	{name: "obs.trace_span_ns", unit: "ns", better: "lower"},
	{name: "stream.ingest_records_per_s", unit: "1/s", better: "higher"},
	{name: "stream.wal_append_us", unit: "us", better: "lower"},
	{name: "model.coverage", unit: "ratio", better: "higher"},
	{name: "go.alloc_bytes_per_ctx", unit: "bytes", better: "lower"},
	{name: "go.allocs_per_ctx", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_share_pct", unit: "%", better: "lower"},
	{name: "go.heap_live_mb", unit: "MiB", better: "lower"},
	{name: "client.lap_p50_ns_per_ctx", unit: "ns", better: "lower"},
	{name: "client.lap_iqr_pct", unit: "%", better: "lower"},
	{name: "client.lat_p50_us", unit: "us", better: "lower"},
	{name: "client.lat_p99_us", unit: "us", better: "lower"},
	{name: "client.laps", unit: "count", better: "higher"},
	{name: "proc.ready_ms", unit: "ms", better: "lower"},
	{name: "proc.rss_mb", unit: "MiB", better: "lower"},
	{name: "net.get_rtt_p50_us", unit: "us", better: "lower"},
	{name: "net.batch_rtt_p50_us", unit: "us", better: "lower"},
	{name: "net.mismatches", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// metrics is one run's named results, printed in spec order.
type metrics map[string]float64
