package serve

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/query"
)

// Fleet-mode request handling: the handler defers model choice to a
// fleet.Router. One interning against the router's base dictionary yields
// the sticky routing hash, the cache key and the prediction context; the
// chosen arm's slot supplies the (model, generation) pair and the registry's
// shared slot-keyed cache fronts them all. The arm that served is echoed in
// the X-Serve-Arm response header (pre-built slice: no allocation) so load
// generators and log pipelines can attribute latency and answer quality per
// arm. The whole path stays zero-allocation at steady state — the CI gate
// BenchmarkRouteAB pins it there.

// suggestFleet is the fleet twin of the single-model suggest fast path.
func (h *Handler) suggestFleet(w http.ResponseWriter, b *reqScratch, n int) {
	rt := h.fleet
	tr := traceOf(w)
	b.ctx = rt.AppendContextBytes(b.ctx[:0], b.raw)
	armIdx := rt.Route(b.ctx)
	arm := rt.Arm(armIdx)
	slot := arm.Slot()
	st := slot.State()
	ans, hit := h.cache.AnswerSlot(slot.ID(), st.Gen, st.Rec, b.ctx, n)
	// As in suggest, the lookup stage opened with the trace.
	took := tr.Elapsed().Microseconds()
	if hit {
		recordStage(tr, h.histCache, stageCache, 0, took, "hit")
	} else {
		recordStage(tr, h.histDescent, stageDescent, 0, took, "miss")
	}
	h.m.suggests.Add(1)
	rt.RecordServe(armIdx, took)
	// Shadow-score only champion-served requests: divergence metrics mean
	// "challenger vs champion", and once a challenger ramps to live weight its
	// own answers must not pollute its comparison baseline.
	if len(b.ctx) > 0 && armIdx == 0 {
		rt.Shadow(b.ctx, n, ans.Recs)
	}
	w.Header()["X-Serve-Arm"] = arm.HeaderValue()
	b.body = appendSuggestResponse(b.body[:0], b.raw, ans, took)
	setJSONContentType(w)
	w.Write(b.body)
}

// recommendBatchFleet resolves a batch in fleet mode: the contexts were
// already interned once against the router's base dictionary by the batch
// parser; here each is routed to its sticky arm and the per-arm groups are
// scored through the shared cache with one PredictBatch call per arm.
// Batch items are not shadow-scored (shadow divergence samples the
// interactive path).
func (h *Handler) recommendBatchFleet(bb *batchScratch) {
	rt := h.fleet
	arms := rt.Arms()
	groups := make([]struct {
		idx  []int
		ctxs []query.Seq
		ns   []int
	}, len(arms))
	for i, ctx := range bb.ctxs {
		armIdx := rt.Route(ctx)
		g := &groups[armIdx]
		g.idx = append(g.idx, i)
		g.ctxs = append(g.ctxs, ctx)
		g.ns = append(g.ns, bb.ns[i])
	}
	for armIdx := range groups {
		g := &groups[armIdx]
		if len(g.idx) == 0 {
			continue
		}
		slot := arms[armIdx].Slot()
		st := slot.State()
		out := make([]cache.Answer, len(g.idx))
		h.cache.AnswerBatchSlot(slot.ID(), st.Gen, st.Rec, g.ctxs, g.ns, out)
		for j, i := range g.idx {
			bb.out[i] = out[j]
		}
	}
}

// reloadFleet serves POST /v1/reload?model=<name>[&force=1] in fleet mode.
func (h *Handler) reloadFleet(w http.ResponseWriter, name string, force bool, start time.Time) {
	if name == "" {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "fleet serving reloads by name: POST /v1/reload?model=<name> (see /v1/models)")
		return
	}
	slot := h.fleet.Registry().Slot(name)
	if slot == nil {
		obs.WriteError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown model %q (see /v1/models)", name))
		return
	}
	gen, err := slot.Reload(force)
	if err != nil {
		writeReloadError(w, err)
		return
	}
	h.m.reloads.Add(1)
	// Advance the interning base so vocabulary added by a champion reload
	// becomes servable; a lagging arm keeps the old (still sound) base.
	if err := h.fleet.RefreshBase(); err != nil && h.opts.Logger != nil {
		h.opts.Logger.Printf("interning base not advanced after reload of %q: %v", name, err)
	}
	obs.WriteJSON(w, http.StatusOK, ReloadResponse{
		Model:        name,
		Generation:   gen,
		KnownQueries: slot.State().Rec.Dict().Len(),
		TookMicros:   time.Since(start).Microseconds(),
	})
}

// ModelInfo is one registry slot's row in the GET /v1/models payload.
type ModelInfo struct {
	Name          string `json:"name"`
	Role          string `json:"role"` // "champion", "arm", "shadow" or "default"
	Weight        uint32 `json:"weight"`
	Generation    uint64 `json:"generation"`
	DictHash      string `json:"dict_hash"`
	KnownQueries  int    `json:"known_queries"`
	Compiled      bool   `json:"compiled"`
	CompiledNodes int    `json:"compiled_nodes,omitempty"`
	Quantised     bool   `json:"compiled_quantised,omitempty"`
	BlobFormat    string `json:"model_blob_format,omitempty"`
	BlobBytes     int64  `json:"model_blob_bytes,omitempty"`
	Reloadable    bool   `json:"reloadable"`
}

// ModelsResponse is the GET /v1/models payload: every registered model with its
// routing role, plus the live per-arm serving stats and shadow divergence.
// BaseDictHash fingerprints the dictionary contexts are interned against
// (advanced by champion reloads when every arm still extends it).
type ModelsResponse struct {
	Models       []ModelInfo         `json:"models"`
	BaseDictHash string              `json:"base_dict_hash,omitempty"`
	Arms         []fleet.ArmStats    `json:"arms,omitempty"`
	Shadows      []fleet.ShadowStats `json:"shadows,omitempty"`
}

// models serves GET /v1/models. In single-model mode it reports the one served
// model under the name "default", so tooling can treat every deployment
// uniformly.
func (h *Handler) models(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	if h.fleet == nil {
		st := h.state.Load()
		obs.WriteJSON(w, http.StatusOK, ModelsResponse{Models: []ModelInfo{
			modelInfo("default", "default", 1, st.gen, st.rec, h.opts.ReloadFunc != nil),
		}})
		return
	}
	rt := h.fleet
	roles := make(map[string]string)
	weights := make(map[string]uint32)
	for i, a := range rt.Arms() {
		// Roles follow the current (dynamic) weights: a declared-shadow arm
		// that the ramp has walked to positive weight reads as a live arm.
		role := "arm"
		switch {
		case i == 0:
			role = "champion"
		case a.Weight() == 0:
			role = "shadow"
		}
		roles[a.Slot().Name()] = role
		weights[a.Slot().Name()] = a.Weight()
	}
	for _, s := range rt.ShadowSlots() {
		if _, routed := roles[s.Name()]; !routed {
			roles[s.Name()] = "shadow"
		}
	}
	resp := ModelsResponse{
		BaseDictHash: fmt.Sprintf("%016x", rt.BaseDictHash()),
		Arms:         rt.ArmStats(),
		Shadows:      rt.ShadowStats(),
	}
	for _, slot := range rt.Registry().Slots() {
		st := slot.State()
		role := roles[slot.Name()]
		if role == "" {
			role = "unrouted"
		}
		resp.Models = append(resp.Models, modelInfo(slot.Name(), role, weights[slot.Name()], st.Gen, st.Rec, true))
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// modelInfo assembles one ModelInfo row.
func modelInfo(name, role string, weight uint32, gen uint64, rec core.Recommender, reloadable bool) ModelInfo {
	info := ModelInfo{
		Name:         name,
		Role:         role,
		Weight:       weight,
		Generation:   gen,
		DictHash:     fmt.Sprintf("%016x", rec.Dict().Hash()),
		KnownQueries: rec.Dict().Len(),
		Reloadable:   reloadable,
	}
	if cm := rec.CompiledModel(); cm != nil {
		info.Compiled = true
		info.CompiledNodes = cm.Nodes()
		info.Quantised = cm.Quantised()
	}
	li := rec.LoadInfo()
	info.BlobFormat = li.Format
	info.BlobBytes = li.BlobBytes
	return info
}

// RouteInfo is the GET /v1/route payload: where the given context would be
// served, without serving it.
type RouteInfo struct {
	Context     []string `json:"context"`
	InternedLen int      `json:"interned_len"`
	Hash        string   `json:"context_hash"`
	Arm         string   `json:"arm"`
	Generation  uint64   `json:"model_generation"`
}

// routeInfo serves GET /v1/route?q=...&q=... — the admin view of the sticky
// assignment: which arm owns this context, under which routing hash. In
// single-model mode every context reports the one model.
func (h *Handler) routeInfo(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	context := r.URL.Query()["q"]
	if len(context) == 0 {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "missing q parameters (one per context query, oldest first)")
		return
	}
	if h.fleet == nil {
		st := h.state.Load()
		ctx := core.InternContext(st.rec.Dict(), context)
		obs.WriteJSON(w, http.StatusOK, RouteInfo{
			Context:     context,
			InternedLen: len(ctx),
			Hash:        fmt.Sprintf("%016x", fleet.HashSeq(ctx)),
			Arm:         "default",
			Generation:  st.gen,
		})
		return
	}
	rt := h.fleet
	ctx := rt.AppendContext(make(query.Seq, 0, len(context)), context)
	arm := rt.Arm(rt.Route(ctx))
	obs.WriteJSON(w, http.StatusOK, RouteInfo{
		Context:     context,
		InternedLen: len(ctx),
		Hash:        fmt.Sprintf("%016x", fleet.HashSeq(ctx)),
		Arm:         arm.Slot().Name(),
		Generation:  arm.Slot().State().Gen,
	})
}
