package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
)

// ArmSpec declares one routing arm when building a Router: the registry slot
// it serves from and its initial traffic weight. Weight 0 marks a shadow arm:
// it starts with no live traffic but is scored asynchronously against the
// champion's answers (divergence metrics, cache warming) — and, unlike in the
// original immutable router, it can later be walked up to live weight via
// SetWeight (the auto-ramp path) without rebuilding the router.
type ArmSpec struct {
	Name   string
	Weight uint32
}

// Arm is one routing arm. Arms exist for every declared spec, including
// currently weight-0 ones; only arms with positive weight receive live
// traffic (see Route).
type Arm struct {
	slot   *Slot
	weight atomic.Uint32 // current traffic weight, adjusted by SetWeight

	// header is the pre-built X-Serve-Arm header value; assigning a shared
	// slice into the response header map keeps the hot path allocation-free
	// (same trick as the serving layer's content-type).
	header []string

	// cache and descent hold the stage latency of the arm's hits and misses,
	// a served GET's one stage record; lat, derived from the two, is the
	// arm's latency, and its count the arm's request count.
	cache, descent obs.Histogram
	lat            obs.Histogram
}

// Slot returns the registry slot this arm serves from.
func (a *Arm) Slot() *Slot { return a.slot }

// Weight returns the arm's current traffic weight.
func (a *Arm) Weight() uint32 { return a.weight.Load() }

// HeaderValue returns the shared pre-built header slice carrying the arm's
// name, for allocation-free `w.Header()["X-Serve-Arm"] = ...` assignment.
func (a *Arm) HeaderValue() []string { return a.header }

// Stages returns the arm's hit and miss stage histograms, for derived views.
func (a *Arm) Stages() (cache, descent *obs.Histogram) { return &a.cache, &a.descent }

// routeTable is the immutable weight snapshot Route reads: cumulative bounds
// over the arms that currently carry positive weight. Rebuilt by SetWeight
// and swapped in atomically, so Route stays lock- and allocation-free while
// weights change underneath it.
type routeTable struct {
	total uint64   // sum of live weights
	cum   []uint64 // cumulative weight bound (exclusive) per live entry
	idx   []int    // arms index of each live entry
}

// Router splits suggestion traffic across registry slots: weighted sticky
// A/B assignment by hash of the interned context, with optional shadow arms
// scored off the serving path. Construction validates that every arm's
// dictionary extends the base (first) arm's, so one interning is valid
// everywhere. The arm set is fixed at construction but weights are dynamic
// (SetWeight, Promote — the auto-ramp path); all methods are safe for
// unbounded concurrent use.
type Router struct {
	reg  *Registry
	arms []*Arm // all declared arms, declaration order; arms[0] is the champion

	// mu serialises weight changes; the serving path never takes it.
	mu    sync.Mutex
	table atomic.Pointer[routeTable]

	// baseDict is the interning base: initially the champion's dictionary at
	// construction, advanced by RefreshBase after champion reloads (only when
	// every arm still extends the candidate — the soundness condition for
	// sharing one interning across arms). baseMu serialises the advances.
	baseDict atomic.Pointer[query.Dict]
	baseMu   sync.Mutex
	shadows  *shadower // nil when no shadow arms
}

// NewRouter builds a router over registry slots. specs declares the arms in
// order; the first spec is the champion, whose dictionary becomes the base
// every context is interned against, and which must carry a positive weight.
// Weight-0 specs are shadow arms: scored asynchronously from construction,
// and routable later once SetWeight raises them. Every arm's dictionary
// must extend the champion's (ErrDictIncompatible otherwise) — the property
// that keeps one interned context valid, sticky and cache-consistent across
// all arms. A registry serves one router: the router records in each arm's
// slot that its model answers contexts interned against the base.
func NewRouter(reg *Registry, specs ...ArmSpec) (*Router, error) {
	if len(specs) == 0 {
		return nil, errors.New("fleet: router needs at least one arm")
	}
	if specs[0].Weight == 0 {
		return nil, errors.New("fleet: champion (first) arm needs positive weight")
	}
	champion := reg.Slot(specs[0].Name)
	if champion == nil {
		return nil, fmt.Errorf("fleet: unknown slot %q", specs[0].Name)
	}
	// Only the dictionary is retained (the old model itself is not kept
	// alive); RefreshBase advances it after champion reloads.
	rt := &Router{reg: reg}
	baseDict := champion.State().Rec.Dict()
	rt.baseDict.Store(baseDict)
	var shadowSlots []*Slot
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		slot := reg.Slot(spec.Name)
		if slot == nil {
			return nil, fmt.Errorf("fleet: unknown slot %q", spec.Name)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("fleet: duplicate arm %q", spec.Name)
		}
		seen[spec.Name] = true
		if !slot.rebase(baseDict) {
			d := slot.State().Rec.Dict()
			return nil, &ErrDictIncompatible{Slot: spec.Name, OldHash: baseDict.Hash(), NewHash: d.Hash()}
		}
		a := &Arm{slot: slot, header: []string{spec.Name}}
		a.lat.Derive(&a.cache, &a.descent)
		a.weight.Store(spec.Weight)
		rt.arms = append(rt.arms, a)
		if spec.Weight == 0 {
			shadowSlots = append(shadowSlots, slot)
		}
	}
	rt.table.Store(rt.buildTable())
	if len(shadowSlots) > 0 {
		rt.shadows = newShadower(reg, shadowSlots)
	}
	return rt, nil
}

// buildTable snapshots current arm weights into a fresh route table.
func (rt *Router) buildTable() *routeTable {
	t := &routeTable{}
	for i, a := range rt.arms {
		w := uint64(a.weight.Load())
		if w == 0 {
			continue
		}
		t.total += w
		t.cum = append(t.cum, t.total)
		t.idx = append(t.idx, i)
	}
	return t
}

// SetWeight changes one arm's traffic weight and atomically installs the new
// routing table. Raising a declared-shadow arm above zero starts serving it
// live traffic (it keeps being shadow-scored); the call fails if the arm is
// unknown or if the change would leave the router with zero total weight.
// Sticky assignment is preserved for contexts whose bucket stays within an
// unchanged prefix of the weight vector — the usual case when only the
// trailing challenger's weight moves.
func (rt *Router) SetWeight(name string, weight uint32) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var arm *Arm
	for _, a := range rt.arms {
		if a.header[0] == name {
			arm = a
			break
		}
	}
	if arm == nil {
		return fmt.Errorf("fleet: unknown arm %q", name)
	}
	old := arm.weight.Load()
	arm.weight.Store(weight)
	t := rt.buildTable()
	if t.total == 0 {
		arm.weight.Store(old)
		return errors.New("fleet: refusing weight change leaving zero total weight")
	}
	rt.table.Store(t)
	return nil
}

// Registry returns the router's slot registry.
func (rt *Router) Registry() *Registry { return rt.reg }

// Arms returns every declared arm in declaration order (the champion first),
// including arms whose current weight is zero. The slice is shared; callers
// must not mutate it.
func (rt *Router) Arms() []*Arm { return rt.arms }

// LiveArms reports how many arms currently carry live traffic (weight > 0).
func (rt *Router) LiveArms() int { return len(rt.table.Load().idx) }

// ShadowSlots returns the slots scored in shadow mode, or nil.
func (rt *Router) ShadowSlots() []*Slot {
	if rt.shadows == nil {
		return nil
	}
	return rt.shadows.slots
}

// Base returns the dictionary a request interns its context against — the
// one interning a request performs (queries outside the base vocabulary are
// dropped). The arm that serves the context checks it with
// SlotState.Answers.
func (rt *Router) Base() *query.Dict { return rt.baseDict.Load() }

// RefreshBase advances the interning base to the champion slot's current
// dictionary so vocabulary added by a champion reload becomes servable.
// The advance happens only when every arm (shadow arms included) still
// extends the candidate — the condition under which one interning stays
// valid in every model; otherwise the router keeps interning against the
// old base and returns ErrDictIncompatible naming the lagging slot. A slot
// whose model does not extend the base in use (a forced swap) answers
// contexts interned against its own dictionary meanwhile. Callers invoke it
// after reloading slots; serving continues uninterrupted either way.
func (rt *Router) RefreshBase() error {
	rt.baseMu.Lock()
	defer rt.baseMu.Unlock()
	next := rt.arms[0].slot.State().Rec.Dict()
	if next == rt.baseDict.Load() {
		return nil
	}
	for _, a := range rt.arms {
		if d := a.slot.State().Rec.Dict(); !d.Extends(next) {
			return &ErrDictIncompatible{Slot: a.slot.name, OldHash: next.Hash(), NewHash: d.Hash()}
		}
	}
	for _, a := range rt.arms {
		a.slot.rebase(next) // false only if a forced swap raced this one
	}
	rt.baseDict.Store(next)
	return nil
}

// BaseDictHash fingerprints the current interning base (see /v1/models).
func (rt *Router) BaseDictHash() uint64 { return rt.baseDict.Load().Hash() }

// HashSeq returns the routing hash of an interned context: FNV-1a over the
// IDs' big-endian bytes. The hash is a pure function of the interned context,
// which is what makes arm assignment sticky across requests and processes.
func HashSeq(ctx query.Seq) uint64 {
	h := uint64(fnvOffset64)
	for _, q := range ctx {
		for shift := 24; shift >= 0; shift -= 8 {
			h ^= uint64(byte(q >> shift))
			h *= fnvPrime64
		}
	}
	return h
}

// Route returns the arm index serving the interned context: the hash picks a
// bucket in [0, totalWeight) and the live arm owning that bucket wins, so
// assignment is deterministic (sticky) and weight-proportional under any
// fixed weight vector. Empty contexts go to the champion. Route reads one
// atomic weight-table snapshot and is allocation-free.
func (rt *Router) Route(ctx query.Seq) int {
	if len(ctx) == 0 {
		return 0
	}
	t := rt.table.Load()
	if len(t.idx) == 1 {
		return t.idx[0]
	}
	bucket := HashSeq(ctx) % t.total
	// Live arms are few (2-4): a linear scan over cumulative bounds beats
	// binary search's branch misses.
	for i, c := range t.cum {
		if bucket < c {
			return t.idx[i]
		}
	}
	return t.idx[len(t.idx)-1] // unreachable: bucket < total == last cum
}

// Arm returns the live arm at index i (as returned by Route).
func (rt *Router) Arm(i int) *Arm { return rt.arms[i] }

// RecordServe attributes one served request to arm i: its stage latency, in
// the arm's cache or descent histogram — the raw material for offline A/B
// comparison of the arms' logged answer quality and latency.
func (rt *Router) RecordServe(i int, hit bool, tookMicros int64) {
	if a := rt.arms[i]; hit {
		a.cache.Record(tookMicros)
	} else {
		a.descent.Record(tookMicros)
	}
}

// Shadow hands the served request to the shadow scorer, if any: every
// configured shadow slot will asynchronously answer the same (context, n)
// and record its divergence from the champion-side answer. Non-blocking; a
// full queue drops the sample (counted). champion is the answer served to
// the user; base is the dictionary ctx was interned against (Base).
func (rt *Router) Shadow(base *query.Dict, ctx query.Seq, n int, champion []core.Suggestion) {
	if rt.shadows == nil {
		return
	}
	rt.shadows.enqueue(base, ctx, n, champion)
}

// ShadowStats snapshots the divergence counters per shadow slot, nil when no
// shadow arms are configured.
func (rt *Router) ShadowStats() []ShadowStats {
	if rt.shadows == nil {
		return nil
	}
	return rt.shadows.stats()
}

// Close stops the shadow worker, if any, and waits for it to return. The
// router must not be handed new shadow work after Close; live routing keeps
// working.
func (rt *Router) Close() {
	if rt.shadows != nil {
		rt.shadows.close()
	}
}

// ArmStats is one live arm's /v1/metrics and /v1/models slice. Latency quantiles
// come from the arm's full-history histogram (upper-bounded estimates, at
// most 1/32 relative error, never under-reported).
type ArmStats struct {
	Name       string  `json:"name"`
	Weight     uint32  `json:"weight"`
	Share      float64 `json:"share"` // weight / total weight
	Requests   uint64  `json:"requests"`
	P50Micros  int64   `json:"latency_p50_us"`
	P99Micros  int64   `json:"latency_p99_us"`
	P999Micros int64   `json:"latency_p999_us"`
	MaxMicros  int64   `json:"latency_max_us"`
}

// ArmStats snapshots the per-arm serving counters in arm order. Share is
// computed against the current routing table's total, so a ramping arm's
// traffic fraction is visible as it moves.
func (rt *Router) ArmStats() []ArmStats {
	total := rt.table.Load().total
	out := make([]ArmStats, len(rt.arms))
	for i, a := range rt.arms {
		w := a.weight.Load()
		out[i] = ArmStats{
			Name:       a.header[0],
			Weight:     w,
			Share:      float64(w) / float64(total),
			Requests:   a.lat.Count(),
			P50Micros:  a.lat.Quantile(0.50),
			P99Micros:  a.lat.Quantile(0.99),
			P999Micros: a.lat.Quantile(0.999),
			MaxMicros:  a.lat.Max(),
		}
	}
	return out
}

// ShadowStatsFor returns the divergence snapshot of one shadow slot by name.
func (rt *Router) ShadowStatsFor(name string) (ShadowStats, bool) {
	if rt.shadows == nil {
		return ShadowStats{}, false
	}
	return rt.shadows.statsFor(name)
}

// ResetShadow zeroes one shadow slot's divergence counters — called when a
// new challenger generation lands in the slot, so ramp decisions never mix
// measurements across generations.
func (rt *Router) ResetShadow(name string) {
	if rt.shadows != nil {
		rt.shadows.reset(name)
	}
}

// Promote installs the named challenger arm's current model as the champion:
// the champion slot swaps to the challenger's recommender (normal dict-extends
// rules apply), the challenger's weight returns to zero, its shadow counters
// reset, and the interning base advances so vocabulary the challenger learned
// becomes servable. The challenger slot itself is untouched — the next
// ingestion push lands there and the ramp starts over.
func (rt *Router) Promote(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var arm *Arm
	for _, a := range rt.arms[1:] {
		if a.header[0] == name {
			arm = a
			break
		}
	}
	if arm == nil {
		return fmt.Errorf("fleet: unknown challenger arm %q", name)
	}
	rec := arm.slot.State().Rec
	if _, err := rt.arms[0].slot.Swap(rec, false); err != nil {
		return fmt.Errorf("fleet: promoting %q: %w", name, err)
	}
	arm.weight.Store(0)
	rt.table.Store(rt.buildTable())
	if rt.shadows != nil {
		rt.shadows.reset(name)
	}
	return rt.RefreshBase()
}
