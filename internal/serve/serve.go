// Package serve exposes a trained recommender over HTTP — the "real-time
// search engine query recommendation" deployment the paper concludes the
// MVMM is suitable for (Sec. VI: constant-time online prediction).
//
// The handler is production-shaped: a sharded LRU result cache fronts the
// model (power-law traffic makes the head of the context distribution very
// hot — Fig. 6), every request is timed into latency histograms, panics are
// recovered, and every model sits behind an atomic pointer so it can be
// hot-reloaded without pausing traffic.
//
// There is one serving mode: every handler serves a fleet (internal/fleet).
// A single model is a one-slot registry named "default" behind a one-arm
// router; Options.Fleet supplies a multi-model one instead, whose suggestion
// traffic is split across registry slots by sticky weighted hash of the
// interned context, with shadow arms scored off the request path. Either way
// the serving arm is echoed in X-Serve-Arm, and every request, reload and
// admin view takes the same code.
//
// Endpoints:
//
//	GET  /suggest?q=<query>&q=<query>...&n=5  ranked suggestions for a context
//	POST /suggest/batch                       many contexts in one request
//	GET  /v1/healthz                          liveness + model/blob provenance
//	                                          (also /healthz: probes don't
//	                                          follow redirects)
//	GET  /v1/metrics                          serving counters, latency quantiles,
//	                                          per-arm shadow divergence
//	                                          (?format=prometheus, and /metrics:
//	                                          the Prometheus exposition)
//	GET  /v1/traces                           tail-sampled request traces
//	POST /v1/reload                           hot-swap a model (?model=<name>, which
//	                                          a one-model registry may omit;
//	                                          &force=1 overrides the 409
//	                                          dictionary-compatibility check)
//	GET  /v1/models                           model registry, roles, dict hashes,
//	                                          divergence
//	GET  /v1/route                            which arm/shard owns a context
//	GET  /v1/ingest                           streaming ingestion loop status
//	                                          (tail offset, write-log, ramp)
//
// Health, metrics and traces are obs.Admin's, mounted by the shard router
// and by cmd/serve -role ingest too; every other admin endpoint lives only
// under /v1/.
// Every non-2xx response carries the JSON error envelope
// {"error":{"code","message",...}}.
//
// Invariants: the GET /suggest hot path performs zero heap allocations at
// steady state — the query string is percent-decoded into pooled buffers
// (no url.Values), contexts are interned byte-wise against the dictionary,
// cache hits are byte-key lookups, a miss the cache does not store is
// answered into a pooled buffer, and responses are built by an append-style
// JSON encoder property-tested byte-compatible with encoding/json
// (TestServeHTTPCachedAllocs pins the cached request at 0 allocs/op, and
// TestRouteABAllocs the same over two arms; only a miss the cache stores
// allocates, its entry's suggestions). Request handling never takes a lock:
// every recommender is immutable and swapped behind its slot's atomic
// pointer, and every request observes a consistent (model, generation) pair
// whose dictionary extends the one its context was interned against.
// /healthz and /v1/metrics additionally report the champion's compiled blob
// byte length and quantised flag, so the served memory footprint is
// observable.
package serve

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
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
// of the batch's scoring (the whole batch is scored in one pass).
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

// Health is the /healthz payload. Compiled reports that requests are served
// from the flat single-PST form (always: there is no other), CompiledNodes
// its merged trie size, and
// Quantised whether that form is the fixed-point CPS5 encoding (bounded
// probability error) rather than exact float64. LoadMode ("trained", "heap"
// or "mmap") and LoadMicros report how and how fast the current model
// materialised, LoadVersion the file's container magic (which names the
// CPS5 blob encoding), and BlobBytes what is actually mapped or decoded — the
// served memory footprint — so cold-start behaviour and memory cost are
// observable in production.
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
	BlobBytes     int64  `json:"model_blob_bytes,omitempty"`
	LoadMicros    int64  `json:"model_load_us,omitempty"`
}

// ReloadResponse is the POST /v1/reload payload. Model names the reloaded
// registry slot ("default" for a handler built without Options.Fleet).
type ReloadResponse struct {
	Model        string `json:"model,omitempty"`
	Generation   uint64 `json:"model_generation"`
	KnownQueries int    `json:"known_queries"`
	TookMicros   int64  `json:"took_us"`
}

// maxN bounds a request's n, on GET and in a batch alike. A batch's size is
// bounded by jsonspan.MaxBatchItems, which the shard router reads too.
const maxN = 100

// Options configures a Handler.
type Options struct {
	// DefaultN is the suggestion count when a request omits n (the paper's
	// N = 5). <= 0 selects 5.
	DefaultN int
	// CacheCapacity sizes the result LRU; <= 0 selects
	// cache.DefaultCapacity.
	CacheCapacity int
	// Logger receives request logs and recovered panics. nil disables
	// request logging (panics are still recovered and counted).
	Logger *log.Logger
	// ReloadFunc is the loader of the "default" slot New builds when Fleet
	// is nil: POST /v1/reload calls it for a freshly loaded recommender. nil
	// leaves the slot without a loader, which a reload answers 501.
	ReloadFunc func() (core.Recommender, error)
	// Fleet, when set, is the router the handler serves: an A/B split and
	// shadow arms over its registry's slots and their shared slot-keyed
	// cache. New's rec, ReloadFunc and CacheCapacity are then unused — the
	// fleet's slots carry the models, their loaders and the cache. nil
	// serves rec as the one arm of a fleet of its own. See internal/fleet.
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
	return o
}

// Handler routes recommendation traffic across a fleet's hot-swappable
// core.Recommender slots. Recommenders are immutable after training, so
// request handling never locks; reloads swap a slot's atomic pointer.
type Handler struct {
	opts  Options
	rt    *fleet.Router
	cache *cache.SuggestCache // the registry's
	chain http.Handler
	m     metrics
	start time.Time

	// Observability (see obs.go): instrument handles are resolved once at
	// construction so the hot path never touches the registry map.
	obs              *obs.Registry
	tracer           *obs.Tracer
	admin            obs.Admin
	histRouteSuggest *obs.Histogram
	histRouteBatch   *obs.Histogram
	histRouteAdmin   *obs.Histogram
	histCache        *obs.Histogram // derived: the arms' cache stages
	histDescent      *obs.Histogram // derived: the arms' descent stages
	histBatchDescent *obs.Histogram
}

// New builds a Handler with the given options. Without Options.Fleet it
// serves rec as the one arm of a fleet of its own: a one-slot registry named
// "default", loaded by Options.ReloadFunc and caching Options.CacheCapacity
// results, behind a one-arm router. With Options.Fleet it serves that
// router's arms and rec is unused. It panics on a nil rec without a fleet.
func New(rec core.Recommender, opts Options) *Handler {
	h := &Handler{opts: opts.withDefaults(), rt: opts.Fleet, start: time.Now()}
	if h.rt == nil {
		reg := fleet.NewRegistry(opts.CacheCapacity)
		_, err := reg.Add("default", rec, opts.ReloadFunc)
		if err == nil {
			h.rt, err = fleet.NewRouter(reg, fleet.ArmSpec{Name: "default", Weight: 1})
		}
		if err != nil {
			panic("serve: " + err.Error())
		}
	}
	h.cache = h.rt.Registry().Cache()
	h.initObs()
	h.chain = h.instrument(http.HandlerFunc(h.route))
	return h
}

// route dispatches by exact path. A switch instead of http.ServeMux keeps
// the hot path free of the mux's per-request pattern-matching allocations.
// Paths it does not own go to the admin surface (health, metrics, traces),
// which 404s the rest.
func (h *Handler) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/suggest":
		h.suggest(w, r)
	case "/suggest/batch", "/v1/suggest/batch":
		h.suggestBatch(w, r)
	case "/v1/reload":
		h.reload(w, r)
	case "/v1/models":
		h.models(w, r)
	case "/v1/route":
		h.routeInfo(w, r)
	case "/v1/ingest":
		h.ingestStatus(w, r)
	default:
		h.admin.ServeHTTP(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.chain.ServeHTTP(w, r)
}

// reqScratch holds every per-request buffer of the hot /suggest path, in the
// request's pooled writer: decoded q values (flat storage + per-value views),
// the interned context, the suggestions of a miss the cache refused to store,
// and the response body under construction.
type reqScratch struct {
	flat []byte   // the query string's decoded pairs, back to back
	raw  [][]byte // views into flat, one per q value
	ctx  query.Seq
	recs []core.Suggestion // lent to AnswerSlot
	body []byte
}

// reset empties the buffers for the writer's next request.
func (b *reqScratch) reset() {
	b.flat = b.flat[:0]
	b.raw = b.raw[:0]
	b.ctx = b.ctx[:0]
	clear(b.recs) // do not retain a model's strings in the pool
	b.recs = b.recs[:0]
	b.body = b.body[:0]
}

// parseSuggestQuery reads the /suggest query string off the query walker
// (jsonspan.Query, which the shard router hashes the same pairs from): the q
// values stay where the walker decoded them, in the pooled flat buffer (no
// strings are created), and n is the first non-empty n. Pairs the walker drops
// do not count, matching url.ParseQuery, and badN reports an explicit
// out-of-range or non-numeric n (a 400).
func (b *reqScratch) parseSuggestQuery(raw string, defaultN int) (n int, badN bool) {
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
// one byte-level interning against the router's base dictionary (which
// yields the sticky routing hash, the cache key and the prediction context
// at once), an allocation-free cache hit whose suggestions are copied into
// the pooled body as the bytes the cache stored, and an append-style JSON
// encoder for the rest. The serving arm is echoed in X-Serve-Arm (a
// pre-built slice: no allocation). Steady-state cache hits allocate nothing
// in the handler itself.
func (h *Handler) suggest(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	sw := w.(*statusWriter) // route is only ever reached through instrument
	b, tr := &sw.get, &sw.tr
	n, badN := b.parseSuggestQuery(r.URL.RawQuery, h.opts.DefaultN)
	if badN {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("n must be an integer in [1,%d]", maxN))
		return
	}
	if len(b.raw) == 0 {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "missing q parameters (one per context query, oldest first)")
		return
	}
	rt := h.rt
	base := rt.Base()
	b.ctx = core.AppendContextBytes(base, b.ctx[:0], b.raw)
	armIdx := rt.Route(b.ctx)
	arm := rt.Arm(armIdx)
	slot := arm.Slot()
	st := slot.State()
	// Shadow-score only champion-served requests: divergence metrics mean
	// "challenger vs champion", and once a challenger ramps to live weight its
	// own answers must not pollute its comparison baseline.
	shadow := armIdx == 0
	if !st.Answers(base) {
		// A forced swap put a model here whose dictionary does not extend the
		// base: it answers the context in its own IDs.
		b.ctx = core.AppendContextBytes(st.Rec.Dict(), b.ctx[:0], b.raw)
		shadow = false
	}
	ans, hit := h.cache.AnswerSlot(slot.ID(), st.Gen, st.Rec, b.ctx, n, &b.recs)
	// The request's second clock read of three (the trace's start, this, the
	// middleware's on the way out). The stage opened with the trace: it
	// covers parsing + interning + lookup (+ descent on a miss); attribute it
	// to the cache stage on a hit and the descent stage on a miss — the
	// failed probe's share of a miss is negligible. Its one record is the
	// serving arm's, which the stage families and the arm's latency sum.
	took := tr.Elapsed().Microseconds()
	if hit {
		tr.Chain(stageCache, took, "hit")
	} else {
		tr.Chain(stageDescent, took, "miss")
	}
	rt.RecordServe(armIdx, hit, took)
	if shadow && len(b.ctx) > 0 {
		rt.Shadow(base, b.ctx, n, ans.Recs)
	}
	w.Header()["X-Serve-Arm"] = arm.HeaderValue()
	b.body = appendSuggestResponse(b.body[:0], b.raw, ans, took)
	setJSONContentType(w)
	w.Write(b.body)
}

// champion returns the champion slot's (model, generation) pair, which
// health and metrics describe.
func (h *Handler) champion() *fleet.SlotState { return h.rt.Arm(0).Slot().State() }

// swaps counts the successful model swaps of every registry slot: each one
// bumped its slot's generation by one.
func (h *Handler) swaps() uint64 {
	var n uint64
	for _, slot := range h.rt.Registry().Slots() {
		n += slot.State().Gen - 1
	}
	return n
}

func (h *Handler) health(w http.ResponseWriter, r *http.Request) {
	st := h.champion()
	rec := st.Rec
	cm, li := rec.CompiledModel(), rec.LoadInfo()
	obs.WriteJSON(w, http.StatusOK, Health{
		Status:        "ok",
		KnownQueries:  rec.Dict().Len(),
		TrainSessions: rec.Stats().Sessions,
		Generation:    st.Gen,
		// Arms counts arms currently taking traffic: a challenger mid-ramp
		// raises it, a freeze drops it back — liveness probes see the split.
		Arms:          h.rt.LiveArms(),
		ShadowModels:  len(h.rt.ShadowSlots()),
		Compiled:      true,
		CompiledNodes: cm.Nodes(),
		Quantised:     cm.Quantised(),
		LoadMode:      li.Mode,
		LoadVersion:   li.Version,
		BlobBytes:     li.BlobBytes,
		LoadMicros:    li.Duration.Microseconds(),
	})
}

// metricsHandler is the JSON view of /v1/metrics. Its latency_* fields read
// the /suggest route's histogram: every GET, as the middleware times it.
func (h *Handler) metricsHandler(w http.ResponseWriter, r *http.Request) {
	st := h.champion()
	rec := st.Rec
	cs := h.cache.Stats()
	cm := rec.CompiledModel()
	li := rec.LoadInfo()
	lat := h.histRouteSuggest
	obs.WriteJSON(w, http.StatusOK, MetricsResponse{
		Requests:        h.m.requests.Load(),
		SuggestRequests: h.suggestRequests(),
		BatchRequests:   h.histBatchDescent.Count(),
		BatchContexts:   h.m.batchContexts.Load(),
		Errors:          h.m.errors.Load(),
		Panics:          h.m.panics.Load(),
		Reloads:         h.swaps(),
		Cache:           cs,
		CacheHitRate:    cs.HitRate(),
		LatencySamples:  int(lat.Count()),
		P50Micros:       lat.Quantile(0.50),
		P90Micros:       lat.Quantile(0.90),
		P99Micros:       lat.Quantile(0.99),
		P999Micros:      lat.Quantile(0.999),
		MaxMicros:       lat.Max(),
		Stages:          h.stageBreakdown(),
		ModelGeneration: st.Gen,
		KnownQueries:    rec.Dict().Len(),
		CompiledNodes:   cm.Nodes(),
		Quantised:       cm.Quantised(),
		BlobBytes:       li.BlobBytes,
		Fleet:           &FleetMetrics{Arms: h.rt.ArmStats(), Shadows: h.rt.ShadowStats()},
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
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	st := h.ingestSnapshot()
	if st == nil {
		obs.WriteError(w, http.StatusNotFound, "not_found", "no ingestion loop running in this process")
		return
	}
	obs.WriteJSON(w, http.StatusOK, st)
}

// reload serves POST /v1/reload. Query parameters: model=<name> selects a
// registry slot (a one-slot registry may omit it), force=1 skips the
// dictionary compatibility check. An incompatible dictionary answers 409
// Conflict with both dictionary hashes so the operator can decide whether to
// force; a slot without a loader answers 501.
func (h *Handler) reload(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodPost) {
		return
	}
	q := r.URL.Query()
	force := q.Get("force") == "1" || q.Get("force") == "true"
	start := time.Now()
	reg := h.rt.Registry()
	name := q.Get("model")
	if name == "" {
		if len(reg.Slots()) != 1 {
			obs.WriteError(w, http.StatusBadRequest, "bad_request", "this fleet reloads by name: POST /v1/reload?model=<name> (see /v1/models)")
			return
		}
		name = reg.Slots()[0].Name()
	}
	slot := reg.Slot(name)
	if slot == nil {
		obs.WriteError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown model %q (see /v1/models)", name))
		return
	}
	if !slot.Reloadable() {
		obs.WriteError(w, http.StatusNotImplemented, "not_implemented", fmt.Sprintf("reload not configured: model %q has no loader", name))
		return
	}
	gen, err := slot.Reload(force)
	if err != nil {
		writeReloadError(w, err)
		return
	}
	// Advance the interning base so vocabulary added by a champion reload
	// becomes servable; a lagging arm keeps the old base.
	if err := h.rt.RefreshBase(); err != nil && h.opts.Logger != nil {
		h.opts.Logger.Printf("interning base not advanced after reload of %q: %v", name, err)
	}
	obs.WriteJSON(w, http.StatusOK, ReloadResponse{
		Model:        name,
		Generation:   gen,
		KnownQueries: slot.State().Rec.Dict().Len(),
		TookMicros:   time.Since(start).Microseconds(),
	})
}

// ErrorBody is the JSON error envelope every non-2xx response carries:
// {"error":{"code","message",...}}. Code is a stable machine-readable slug;
// Message is human-readable. obs.WriteError encodes it without this type; the
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

// writeReloadError maps reload failures to statuses: dictionary conflicts
// are 409 with both hashes in the envelope, everything else 500.
func writeReloadError(w http.ResponseWriter, err error) {
	var dictErr *fleet.ErrDictIncompatible
	if errors.As(err, &dictErr) {
		obs.WriteJSON(w, http.StatusConflict, ErrorBody{Error: ErrorDetail{
			Code:        "dict_incompatible",
			Message:     "incompatible dictionary: interned contexts would be misrouted",
			Model:       dictErr.Slot,
			OldDictHash: fmt.Sprintf("%016x", dictErr.OldHash),
			NewDictHash: fmt.Sprintf("%016x", dictErr.NewHash),
			Hint:        "retrain with the served dictionary as a prefix, or POST /v1/reload?force=1 to replace the vocabulary deliberately",
		}})
		return
	}
	obs.WriteError(w, http.StatusInternalServerError, "reload_failed", "reload failed: "+err.Error())
}
