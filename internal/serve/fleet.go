package serve

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// The fleet's admin views: the registry with its roles (/v1/models) and the
// sticky assignment of one context (/v1/route).

// ModelInfo is one registry slot's row in the GET /v1/models payload.
type ModelInfo struct {
	Name          string `json:"name"`
	Role          string `json:"role"` // "champion", "arm", "shadow" or "unrouted"
	Weight        uint32 `json:"weight"`
	Generation    uint64 `json:"generation"`
	DictHash      string `json:"dict_hash"`
	KnownQueries  int    `json:"known_queries"`
	Compiled      bool   `json:"compiled"`
	CompiledNodes int    `json:"compiled_nodes,omitempty"`
	Quantised     bool   `json:"compiled_quantised,omitempty"`
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

// models serves GET /v1/models. A handler built without Options.Fleet
// reports its one model as the champion named "default".
func (h *Handler) models(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	rt := h.rt
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
		resp.Models = append(resp.Models, modelInfo(slot.Name(), role, weights[slot.Name()], st.Gen, st.Rec, slot.Reloadable()))
	}
	obs.WriteJSON(w, http.StatusOK, resp)
}

// modelInfo assembles one ModelInfo row.
func modelInfo(name, role string, weight uint32, gen uint64, rec core.Recommender, reloadable bool) ModelInfo {
	cm := rec.CompiledModel()
	return ModelInfo{
		Name:          name,
		Role:          role,
		Weight:        weight,
		Generation:    gen,
		DictHash:      fmt.Sprintf("%016x", rec.Dict().Hash()),
		KnownQueries:  rec.Dict().Len(),
		Compiled:      true,
		CompiledNodes: cm.Nodes(),
		Quantised:     cm.Quantised(),
		BlobBytes:     rec.LoadInfo().BlobBytes,
		Reloadable:    reloadable,
	}
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
// assignment: which arm owns this context, under which routing hash.
func (h *Handler) routeInfo(w http.ResponseWriter, r *http.Request) {
	if !obs.AllowMethod(w, r, http.MethodGet) {
		return
	}
	context := r.URL.Query()["q"]
	if len(context) == 0 {
		obs.WriteError(w, http.StatusBadRequest, "bad_request", "missing q parameters (one per context query, oldest first)")
		return
	}
	rt := h.rt
	ctx := core.InternContext(rt.Base(), context)
	arm := rt.Arm(rt.Route(ctx))
	obs.WriteJSON(w, http.StatusOK, RouteInfo{
		Context:     context,
		InternedLen: len(ctx),
		Hash:        fmt.Sprintf("%016x", fleet.HashSeq(ctx)),
		Arm:         arm.Slot().Name(),
		Generation:  arm.Slot().State().Gen,
	})
}
