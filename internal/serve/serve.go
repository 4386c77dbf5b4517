// Package serve exposes a trained recommender over HTTP — the "real-time
// search engine query recommendation" deployment the paper concludes the
// MVMM is suitable for (Sec. VI: constant-time online prediction).
//
// The handler is production-shaped: a sharded LRU result cache fronts the
// model (power-law traffic makes the head of the context distribution very
// hot — Fig. 6), every request is timed into a latency ring, panics are
// recovered, and the model itself sits behind an atomic pointer so it can
// be hot-reloaded without pausing traffic.
//
// Endpoints:
//
//	GET  /suggest?q=<query>&q=<query>...&n=5  ranked suggestions for a context
//	POST /suggest/batch                       many contexts in one request
//	GET  /v1/healthz                          liveness + model/blob provenance
//	                                          (also unversioned: probes don't
//	                                          follow redirects)
//	GET  /v1/metrics                          serving counters, latency quantiles,
//	                                          per-arm shadow divergence
//	POST /v1/reload                           hot-swap the model (?model=<name> in
//	                                          fleet mode, &force=1 to override the
//	                                          409 dictionary-compatibility check)
//	GET  /v1/models                           model registry, roles, families,
//	                                          rerankers, divergence
//	GET  /v1/route                            which arm/shard owns a context
//	GET  /v1/ingest                           streaming ingestion loop status
//	                                          (tail offset, write-log, ramp)
//
// The admin endpoints moved under /v1/ in this release; the legacy
// unversioned paths answer 301 (GETs) or serve as aliases (POST /reload,
// which cannot survive a redirect) for one release. Every non-2xx response
// carries the JSON error envelope {"error":{"code","message",...}}.
//
// With Options.Fleet set the handler serves a multi-model fleet
// (internal/fleet): suggestion traffic is split across registry slots by
// sticky weighted hash of the interned context, shadow arms are scored off
// the request path, and the serving arm is echoed in X-Serve-Arm. The fleet
// hot path carries the same zero-allocation guarantee (CI gates
// BenchmarkRouteAB at 0 allocs/op).
//
// Invariants: the GET /suggest hot path performs zero heap allocations at
// steady state — the query string is percent-decoded into pooled buffers
// (no url.Values), contexts are interned byte-wise against the dictionary,
// cache hits are byte-key lookups, and responses are built by an
// append-style JSON encoder property-tested byte-compatible with
// encoding/json (CI gates the whole stack at <= 2 allocs/op). Request
// handling never takes a lock: the recommender is immutable and swapped
// behind one atomic pointer, and every request observes a consistent
// (model, generation) pair. /healthz and /metrics additionally report the
// served compiled blob's encoding (CPS5, or CPS3), byte length and quantised
// flag, so the memory/accuracy trade chosen at save time is observable.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jsonspan"
	"repro/internal/obs"
	"repro/internal/query"
)

// Suggestion is one recommendation in the JSON response.
type Suggestion struct {
	Query string  `json:"query"`
	Score float64 `json:"score"`
}

// SuggestResponse is the /suggest payload and one element of the batch
// response. In a batch response TookMicros is the context's amortised share
// of the batched descent (the whole batch is scored in one pass).
type SuggestResponse struct {
	Context     []string     `json:"context"`
	Suggestions []Suggestion `json:"suggestions"`
	TookMicros  int64        `json:"took_us"`
}

// BatchItem is one context in a POST /suggest/batch request. Omitting n
// (or sending 0) selects the handler's default suggestion count; negative
// values are rejected.
type BatchItem struct {
	Context []string `json:"context"`
	N       int      `json:"n,omitempty"`
}

// BatchRequest is the POST /suggest/batch body.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// BatchResponse is the POST /suggest/batch payload. Results align 1:1 with
// the request's items.
type BatchResponse struct {
	Results    []SuggestResponse `json:"results"`
	TookMicros int64             `json:"took_us"`
}

// Health is the /healthz payload. Compiled reports whether requests are
// served from the flat single-PST form (the expected state; false means the
// interpreted-mixture fallback), CompiledNodes its merged trie size, and
// Quantised whether that form is the fixed-point CPS5 encoding (bounded
// probability error) rather than exact float64. LoadMode ("trained", "heap"
// or "mmap") and LoadMicros report how and how fast the current model
// materialised, and BlobFormat/BlobBytes what is actually mapped or decoded
// — the served memory footprint — so cold-start behaviour and memory cost
// are observable in production.
type Health struct {
	Status        string `json:"status"`
	KnownQueries  int    `json:"known_queries"`
	TrainSessions uint64 `json:"train_sessions"`
	Generation    uint64 `json:"model_generation"`
	Arms          int    `json:"fleet_arms,omitempty"`
	ShadowModels  int    `json:"fleet_shadow_models,omitempty"`
	Compiled      bool   `json:"compiled"`
	CompiledNodes int    `json:"compiled_nodes,omitempty"`
	Quantised     bool   `json:"compiled_quantised,omitempty"`
	LoadMode      string `json:"model_load_mode,omitempty"`
	LoadVersion   string `json:"model_load_version,omitempty"`
	BlobFormat    string `json:"model_blob_format,omitempty"`
	BlobBytes     int64  `json:"model_blob_bytes,omitempty"`
	MapAdvice     string `json:"model_map_advice,omitempty"`
	LoadMicros    int64  `json:"model_load_us,omitempty"`
}

// ReloadResponse is the POST /reload payload. Model names the reloaded
// registry slot in fleet mode and is empty in single-model mode.
type ReloadResponse struct {
	Model        string `json:"model,omitempty"`
	Generation   uint64 `json:"model_generation"`
	KnownQueries int    `json:"known_queries"`
	TookMicros   int64  `json:"took_us"`
}

// Options configures a Handler.
type Options struct {
	// DefaultN is the suggestion count when a request omits n (the paper's
	// N = 5). <= 0 selects 5.
	DefaultN int
	// MaxN bounds per-request n. <= 0 selects 100.
	MaxN int
	// MaxBatch bounds the number of contexts in one batch request. <= 0
	// selects 256.
	MaxBatch int
	// CacheCapacity sizes the result LRU; <= 0 selects
	// cache.DefaultCapacity.
	CacheCapacity int
	// Logger receives request logs and recovered panics. nil disables
	// request logging (panics are still recovered and counted).
	Logger *log.Logger
	// ReloadFunc, when set, enables POST /reload: it must return a freshly
	// loaded recommender. Handler serialises calls.
	ReloadFunc func() (core.Recommender, error)
	// Fleet, when set, routes every suggestion request through a multi-model
	// router (A/B split, shadow scoring) instead of the single-model state:
	// the handler serves from the router's registry slots and its shared
	// slot-keyed cache, /models and /route become live, and /reload reloads
	// by model name. The rec passed to New still answers /healthz provenance
	// until the champion slot swaps. See internal/fleet.
	Fleet *fleet.Router
	// IngestStatus, when set, enables GET /v1/ingest: the returned value is
	// serialised as the endpoint's JSON payload and embedded in /v1/metrics.
	// The indirection (a func, not a concrete type) keeps this package from
	// importing the ingestion loop — internal/stream wires its own status
	// snapshot in, and its tests can import serve for loopback fleets.
	IngestStatus func() any
	// Obs, when set, is the metric registry the handler records into; nil
	// creates a private one. Sharing a registry lets the process's other
	// subsystems (ingest loop, ramp) expose their instruments through this
	// handler's /metrics exposition.
	Obs *obs.Registry
	// Tracer, when set, is the request tracer; nil creates a private one
	// retaining 256 tail-sampled traces.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.DefaultN <= 0 {
		o.DefaultN = 5
	}
	if o.MaxN <= 0 {
		o.MaxN = 100
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	return o
}

// modelState bundles the recommender with its generation so a request
// observes one consistent (model, generation) pair: the generation is part
// of every cache key, which keeps results computed against an old model
// from answering for a new one across a hot reload.
type modelState struct {
	rec core.Recommender
	gen uint64
}

// Handler routes recommendation traffic to a hot-swappable
// core.Recommender. The recommender is immutable after training, so request
// handling never locks; reloads swap an atomic pointer.
type Handler struct {
	opts     Options
	state    atomic.Pointer[modelState]
	cache    *cache.SuggestCache
	fleet    *fleet.Router // nil in single-model mode
	chain    http.Handler
	m        metrics
	reloadMu sync.Mutex
	start    time.Time

	// Observability (see obs.go): instrument handles are resolved once at
	// construction so the hot path never touches the registry map.
	obs              *obs.Registry
	tracer           *obs.Tracer
	histServe        *obs.Histogram // legacy latency window: suggest + per-batch-context
	histHTTP         *obs.Histogram // every HTTP request, wall-clock
	histRouteSuggest *obs.Histogram
	histRouteBatch   *obs.Histogram
	histRouteAdmin   *obs.Histogram
	histCache        *obs.Histogram
	histDescent      *obs.Histogram
	histRerank       *obs.Histogram
	histBatchDescent *obs.Histogram
}

// New builds a Handler serving rec with the given options. With Options.Fleet
// set, rec should be the router's champion model (it answers the single-model
// accessors); suggestion traffic is then routed across the fleet's registry
// slots and cached in the registry's shared slot-keyed cache.
func New(rec core.Recommender, opts Options) *Handler {
	h := &Handler{
		opts:  opts.withDefaults(),
		fleet: opts.Fleet,
		start: time.Now(),
	}
	if h.fleet != nil {
		h.cache = h.fleet.Registry().Cache()
	} else {
		h.cache = cache.NewSuggestCache(opts.CacheCapacity)
	}
	h.state.Store(&modelState{rec: rec, gen: 1})
	h.initObs()
	h.chain = h.instrument(http.HandlerFunc(h.route))
	return h
}

// route dispatches by exact path. A switch instead of http.ServeMux keeps
// the hot path free of the mux's per-request pattern-matching allocations.
func (h *Handler) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/suggest":
		h.suggest(w, r)
	case "/suggest/batch", "/v1/suggest/batch":
		h.suggestBatch(w, r)
	case "/healthz", "/v1/healthz":
		// Both paths serve directly: liveness probes do not follow 301s,
		// so the legacy path stays a first-class alias, not a redirect.
		h.health(w, r)
	case "/v1/metrics":
		if wantsPrometheus(r) {
			h.prometheusHandler(w, r)
			return
		}
		h.metricsHandler(w, r)
	case "/v1/traces":
		h.tracesHandler(w, r)
	case "/v1/reload":
		h.reload(w, r)
	case "/v1/models":
		h.models(w, r)
	case "/v1/route":
		h.routeInfo(w, r)
	case "/v1/ingest":
		h.ingestStatus(w, r)
	case "/metrics":
		// The Prometheus exposition serves directly on the legacy path too:
		// scrape configs are static and should not depend on redirect
		// following.
		if wantsPrometheus(r) {
			h.prometheusHandler(w, r)
			return
		}
		redirectV1(w, r)
	case "/models", "/route":
		// Legacy admin GETs answer a 301 to their /v1/ home for one release.
		redirectV1(w, r)
	case "/reload":
		// POST bodies and semantics do not survive a 301: alias for one release.
		h.reload(w, r)
	default:
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint")
	}
}

// wantsPrometheus reports whether the request selects the Prometheus text
// exposition (?format=prometheus).
func wantsPrometheus(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "format=prometheus")
}

// redirectV1 301s a legacy unversioned admin path to its /v1/ home.
func redirectV1(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusMovedPermanently)
}

// NewHandler wraps a trained recommender with default options. defaultN is
// the suggestion count when the request omits n (the paper's N = 5).
func NewHandler(rec core.Recommender, defaultN int) *Handler {
	return New(rec, Options{DefaultN: defaultN})
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.chain.ServeHTTP(w, r)
}

// Swap atomically replaces the served model, bumps the generation and purges
// the result cache. In-flight requests finish against the model they loaded;
// no traffic is dropped. Returns the new generation. Unlike Reload, Swap
// performs no dictionary compatibility check: the caller owns the model and
// has decided.
func (h *Handler) Swap(rec core.Recommender) uint64 {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	return h.swapLocked(rec)
}

func (h *Handler) swapLocked(rec core.Recommender) uint64 {
	old := h.state.Load()
	next := &modelState{rec: rec, gen: old.gen + 1}
	h.state.Store(next)
	// Purge releases the old generation's entries; stale Puts that race the
	// swap are keyed by the old generation and can never answer new-model
	// lookups — they just age out of the LRU.
	h.cache.Purge()
	h.m.reloads.Add(1)
	return next.gen
}

// Reload invokes the configured ReloadFunc and swaps the result in. It is
// the shared implementation of POST /reload and cmd/serve's SIGHUP path.
// The replacement model's dictionary must be an ID-preserving extension of
// the served one (query.Dict.Extends) — a permuted or unrelated dictionary
// would let ID-keyed state built against the old model silently misroute, so
// it is rejected with fleet.ErrDictIncompatible (HTTP 409 on the /reload
// endpoint). ReloadForce(true) is the operator override for deliberate full
// vocabulary replacements.
func (h *Handler) Reload() (uint64, error) { return h.ReloadForce(false) }

// ReloadForce is Reload with an explicit escape hatch: force true skips the
// dictionary compatibility check.
func (h *Handler) ReloadForce(force bool) (uint64, error) {
	if h.opts.ReloadFunc == nil {
		return 0, errors.New("serve: no ReloadFunc configured")
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	rec, err := h.opts.ReloadFunc()
	if err != nil {
		return 0, err
	}
	if old := h.state.Load(); !force && !rec.Dict().Extends(old.rec.Dict()) {
		return 0, &fleet.ErrDictIncompatible{
			Slot:    "default",
			OldHash: old.rec.Dict().Hash(),
			NewHash: rec.Dict().Hash(),
		}
	}
	return h.swapLocked(rec), nil
}

// Generation returns the current model generation (1 for the initial
// model, +1 per successful reload).
func (h *Handler) Generation() uint64 { return h.state.Load().gen }

// reqScratch pools every per-request buffer of the hot /suggest path:
// decoded q values (flat storage + per-value views), the interned context,
// and the response body under construction.
type reqScratch struct {
	flat   []byte   // the query string's decoded pairs, back to back
	raw    [][]byte // views into flat, one per q value
	ctx    query.Seq
	rerank []core.Suggestion // reranked copy of a cached answer (fleet mode)
	body   []byte
}

var reqScratchPool = sync.Pool{New: func() any {
	return &reqScratch{
		flat: make([]byte, 0, 256),
		raw:  make([][]byte, 0, 8),
		ctx:  make(query.Seq, 0, 8),
		body: make([]byte, 0, 1024),
	}
}}

func putReqScratch(b *reqScratch) {
	b.flat = b.flat[:0]
	b.raw = b.raw[:0]
	b.ctx = b.ctx[:0]
	clear(b.rerank) // do not retain suggestion strings in the pool
	b.rerank = b.rerank[:0]
	b.body = b.body[:0]
	reqScratchPool.Put(b)
}

// parseSuggestQuery reads the /suggest query string off the query walker
// (jsonspan.Query, which the shard router hashes the same pairs from): the q
// values stay where the walker decoded them, in the pooled flat buffer (no
// strings are created), and n is the first non-empty n. Pairs the walker drops
// do not count, matching url.ParseQuery, and badN reports an explicit
// out-of-range or non-numeric n (a 400).
func (b *reqScratch) parseSuggestQuery(raw string, defaultN, maxN int) (n int, badN bool) {
	n = defaultN
	sawN := false
	q := jsonspan.Query(raw)
	key, val, flat, ok := q.Next(b.flat)
	for ; ok; key, val, flat, ok = q.Next(flat) {
		switch key {
		case "q":
			b.raw = append(b.raw, val)
		case "n":
			if sawN || len(val) == 0 { // the first n that says something wins
				continue
			}
			sawN = true
			v, err := strconv.Atoi(string(val))
			if err != nil || v < 1 || v > maxN {
				return 0, true
			}
			n = v
		}
	}
	b.flat = flat
	return n, false
}

// suggest is the zero-allocation single-context path: pooled parse buffers,
// byte-level interning, an allocation-free cache hit whose suggestions are
// copied into the pooled body as the bytes the cache stored, and an
// append-style JSON encoder for the rest. Steady-state cache hits allocate
// nothing in the handler itself.
func (h *Handler) suggest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	b := reqScratchPool.Get().(*reqScratch)
	defer putReqScratch(b)
	n, badN := b.parseSuggestQuery(r.URL.RawQuery, h.opts.DefaultN, h.opts.MaxN)
	if badN {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("n must be an integer in [1,%d]", h.opts.MaxN))
		return
	}
	if len(b.raw) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "missing q parameters (one per context query, oldest first)")
		return
	}
	if h.fleet != nil {
		h.suggestFleet(w, b, n)
		return
	}
	st := h.state.Load()
	tr := traceOf(w)
	b.ctx = core.AppendContextBytes(st.rec.Dict(), b.ctx[:0], b.raw)
	ans, hit := h.cache.AnswerSlot(0, st.gen, st.rec, b.ctx, n)
	// The request's second clock read of three (the trace's start, this, the
	// middleware's on the way out). The stage opened with the trace: it
	// covers parsing + interning + lookup (+ descent on a miss); attribute it
	// to the cache stage on a hit and the descent stage on a miss — the
	// failed probe's share of a miss is negligible.
	took := tr.Elapsed().Microseconds()
	if hit {
		recordStage(tr, h.histCache, stageCache, 0, took, "hit")
	} else {
		recordStage(tr, h.histDescent, stageDescent, 0, took, "miss")
	}
	h.m.suggests.Add(1)
	h.histServe.Record(took)
	b.body = appendSuggestResponse(b.body[:0], b.raw, ans, took)
	setJSONContentType(w)
	w.Write(b.body)
}

// servingState returns the request-path (model, generation) pair health and
// metrics should describe: the champion slot in fleet mode, the single-model
// state otherwise.
func (h *Handler) servingState() (core.Recommender, uint64) {
	if h.fleet != nil {
		st := h.fleet.Arm(0).Slot().State()
		return st.Rec, st.Gen
	}
	st := h.state.Load()
	return st.rec, st.gen
}

func (h *Handler) health(w http.ResponseWriter, r *http.Request) {
	rec, gen := h.servingState()
	resp := Health{
		Status:        "ok",
		KnownQueries:  rec.Dict().Len(),
		TrainSessions: rec.Stats().Sessions,
		Generation:    gen,
	}
	if h.fleet != nil {
		// Arms counts arms currently taking traffic: a challenger mid-ramp
		// raises it, a freeze drops it back — liveness probes see the split.
		resp.Arms = h.fleet.LiveArms()
		resp.ShadowModels = len(h.fleet.ShadowSlots())
	}
	if cm := rec.CompiledModel(); cm != nil {
		resp.Compiled = true
		resp.CompiledNodes = cm.Nodes()
		resp.Quantised = cm.Quantised()
	}
	li := rec.LoadInfo()
	resp.LoadMode = li.Mode
	resp.LoadVersion = li.Version
	resp.BlobFormat = li.Format
	resp.BlobBytes = li.BlobBytes
	resp.MapAdvice = li.MapAdvice
	resp.LoadMicros = li.Duration.Microseconds()
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	rec, gen := h.servingState()
	cs := h.cache.Stats()
	compiledNodes := 0
	quantised := false
	if cm := rec.CompiledModel(); cm != nil {
		compiledNodes = cm.Nodes()
		quantised = cm.Quantised()
	}
	var fm *FleetMetrics
	if h.fleet != nil {
		fm = &FleetMetrics{Arms: h.fleet.ArmStats(), Shadows: h.fleet.ShadowStats()}
	}
	li := rec.LoadInfo()
	writeJSON(w, http.StatusOK, MetricsResponse{
		Requests:        h.m.requests.Load(),
		SuggestRequests: h.m.suggests.Load(),
		BatchRequests:   h.m.batches.Load(),
		BatchContexts:   h.m.batchContexts.Load(),
		Errors:          h.m.errors.Load(),
		Panics:          h.m.panics.Load(),
		Reloads:         h.m.reloads.Load(),
		Cache:           cs,
		CacheHitRate:    cs.HitRate(),
		LatencySamples:  int(h.histServe.Count()),
		P50Micros:       h.histServe.Quantile(0.50),
		P90Micros:       h.histServe.Quantile(0.90),
		P99Micros:       h.histServe.Quantile(0.99),
		P999Micros:      h.histServe.Quantile(0.999),
		MaxMicros:       h.histServe.Max(),
		Stages:          h.stageBreakdown(),
		ModelGeneration: gen,
		KnownQueries:    rec.Dict().Len(),
		CompiledNodes:   compiledNodes,
		Quantised:       quantised,
		BlobFormat:      li.Format,
		BlobBytes:       li.BlobBytes,
		Fleet:           fm,
		Ingest:          h.ingestSnapshot(),
		UptimeSeconds:   time.Since(h.start).Seconds(),
		Runtime:         readRuntimeStats(),
	})
}

// ingestSnapshot returns the ingestion loop's status value, or nil when no
// ingestion loop is wired in.
func (h *Handler) ingestSnapshot() any {
	if h.opts.IngestStatus == nil {
		return nil
	}
	return h.opts.IngestStatus()
}

// ingestStatus serves GET /v1/ingest: the streaming ingestion loop's state —
// tail offset, write-log position, sessions counted, last recompile, ramp
// step and freeze reason. 404 when the process runs no ingestion loop.
func (h *Handler) ingestStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	st := h.ingestSnapshot()
	if st == nil {
		writeError(w, http.StatusNotFound, "not_found", "no ingestion loop running in this process")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// reload serves POST /reload. Query parameters: model=<name> selects a fleet
// registry slot (required in fleet mode), force=1 skips the dictionary
// compatibility check. An incompatible dictionary answers 409 Conflict with
// both dictionary hashes so the operator can decide whether to force.
func (h *Handler) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	q := r.URL.Query()
	force := q.Get("force") == "1" || q.Get("force") == "true"
	start := time.Now()
	if h.fleet != nil {
		h.reloadFleet(w, q.Get("model"), force, start)
		return
	}
	if h.opts.ReloadFunc == nil {
		writeError(w, http.StatusNotImplemented, "not_implemented", "reload not configured")
		return
	}
	gen, err := h.ReloadForce(force)
	if err != nil {
		writeReloadError(w, err)
		return
	}
	st := h.state.Load()
	writeJSON(w, http.StatusOK, ReloadResponse{
		Generation:   gen,
		KnownQueries: st.rec.Dict().Len(),
		TookMicros:   time.Since(start).Microseconds(),
	})
}

// ErrorBody is the JSON error envelope every non-2xx response carries:
// {"error":{"code","message",...}}. Code is a stable machine-readable slug;
// Message is human-readable. writeError encodes it without this type; the
// type is what clients decode into, and what a dictionary conflict — the one
// envelope with more than the two fields — is encoded from.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope's error object.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Dictionary-conflict details (code "dict_incompatible" only).
	Model       string `json:"model,omitempty"`
	OldDictHash string `json:"old_dict_hash,omitempty"`
	NewDictHash string `json:"new_dict_hash,omitempty"`
	Hint        string `json:"hint,omitempty"`
}

// writeError answers a non-2xx with the consistent error envelope, from the
// one encoder the shard router answers with too (jsonspan.AppendError).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	setJSONContentType(w)
	w.WriteHeader(status)
	w.Write(jsonspan.AppendError([]byte{'{'}, code, msg))
}

// writeReloadError maps reload failures to statuses: dictionary conflicts
// are 409 with both hashes in the envelope, everything else 500.
func writeReloadError(w http.ResponseWriter, err error) {
	var dictErr *fleet.ErrDictIncompatible
	if errors.As(err, &dictErr) {
		writeJSON(w, http.StatusConflict, ErrorBody{Error: ErrorDetail{
			Code:        "dict_incompatible",
			Message:     "incompatible dictionary: interned contexts would be misrouted",
			Model:       dictErr.Slot,
			OldDictHash: fmt.Sprintf("%016x", dictErr.OldHash),
			NewDictHash: fmt.Sprintf("%016x", dictErr.NewHash),
			Hint:        "retrain with the served dictionary as a prefix, or POST /reload?force=1 to replace the vocabulary deliberately",
		}})
		return
	}
	writeError(w, http.StatusInternalServerError, "reload_failed", "reload failed: "+err.Error())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
