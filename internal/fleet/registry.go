// Package fleet is the multi-model routing subsystem in front of the serving
// layer — the machinery the paper's deployment scenario actually needs when
// fresh MVMM models, retrained on new query logs, must be rolled out against
// the incumbent under live traffic from millions of users.
//
// Three pieces compose:
//
//   - Registry: several named, versioned core.Recommender slots, each
//     atomically hot-swappable behind one atomic pointer with its own
//     generation counter over one shared slot-keyed result cache
//     (internal/cache). A single-model deployment is a one-slot registry
//     behind a one-arm router (serve.New builds it).
//   - Router: deterministic A/B traffic splitting by FNV-1a hash of the
//     interned context — sticky, weight-proportional assignment with per-arm
//     serving metrics — plus shadow arms (weight 0) that are scored
//     asynchronously against the champion's answer to measure divergence
//     (top-1 mismatch rate, rank overlap) without touching serving latency.
//   - Ring + transports (ring.go, shard.go, suggest.go): a consistent-hash ring with
//     virtual nodes that fans /suggest and /suggest/batch traffic out to N
//     backend replicas, either in-process (loopback) or over HTTP.
//
// Invariants:
//
//   - Every arm's dictionary must be an ID-preserving extension
//     (query.Dict.Extends) of the router's base dictionary — the champion's
//     at construction. Contexts are interned once against the base
//     dictionary, so the routing hash, the sticky assignment and the cache
//     keys are model-independent, and the interned IDs remain valid in every
//     arm. Slot swaps enforce the same relation (ErrDictIncompatible
//     otherwise), which is what keeps in-flight interned contexts from being
//     silently misrouted across a reload. A forced swap may break it: the
//     slot's state then says so (SlotState.Answers, one pointer compare), and
//     the serving layer interns the context again against the model's own
//     dictionary, so a request is only ever answered by a model whose
//     dictionary extends the one its context was interned against.
//   - Route is allocation-free and lock-free: arms are fixed at construction
//     and model state is read through one atomic pointer per slot.
//   - Shadow scoring never blocks the serving goroutine: jobs are handed to
//     a single worker over a bounded queue and dropped (counted) when it is
//     full.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/query"
)

// ErrDictIncompatible reports a slot swap whose replacement model's
// dictionary is not an ID-preserving extension of the dictionary the slot's
// interned contexts, cache keys and sticky routing hashes were built
// against. Serving such a model would silently misroute IDs; callers should
// surface the hashes (HTTP 409) and let the operator force a full restart
// instead.
type ErrDictIncompatible struct {
	Slot    string // slot name
	OldHash uint64 // query.Dict.Hash of the currently served dictionary
	NewHash uint64 // hash of the rejected replacement dictionary
}

// Error implements error.
func (e *ErrDictIncompatible) Error() string {
	return fmt.Sprintf("fleet: model for slot %q has an incompatible dictionary (serving dict %016x, new dict %016x): interned contexts would be misrouted",
		e.Slot, e.OldHash, e.NewHash)
}

// SlotState is one consistent (model, generation) view of a slot. The
// generation joins every cache key, so results computed against a swapped-out
// model can never answer for its replacement.
type SlotState struct {
	Rec core.Recommender
	Gen uint64
	// base is a dictionary Rec's dictionary is known to extend: its own at
	// registration and after a forced swap to a vocabulary that does not
	// extend the slot's, the router's interning base once the router has
	// checked it (NewRouter, RefreshBase). A swap whose dictionary extends
	// the slot's keeps it: extension is transitive.
	base *query.Dict
}

// Answers reports whether the state may answer a context interned against
// base: whether its model's dictionary is known to extend base. It costs one
// pointer compare; false means the context must be interned again, against
// Rec's own dictionary, before this state answers it.
func (st *SlotState) Answers(base *query.Dict) bool { return st.base == base }

// Slot is one named model in the registry. The served model sits behind an
// atomic pointer (reads never lock); swaps serialise on a per-slot mutex.
type Slot struct {
	name   string
	id     uint32 // cache key-space ID, dense from 0 in registration order
	state  atomic.Pointer[SlotState]
	mu     sync.Mutex // serialises Swap/Reload
	loader func() (core.Recommender, error)
	reg    *Registry
}

// Name returns the slot's registry name.
func (s *Slot) Name() string { return s.name }

// ID returns the slot's dense cache key-space identifier.
func (s *Slot) ID() uint32 { return s.id }

// State returns the slot's current (model, generation) pair. The result is
// immutable; callers must use one State result for a whole request.
func (s *Slot) State() *SlotState { return s.state.Load() }

// Swap atomically replaces the slot's model and bumps its generation,
// enforcing dictionary compatibility: the new model's dictionary must be an
// ID-preserving extension of the current one (see ErrDictIncompatible). force
// bypasses the check for operator-confirmed full replacements; such a model
// answers contexts interned against its own dictionary only (see Answers)
// until the router's base catches up with it. The shared cache is purged
// either way — stale entries could never answer (generation keying) but
// their memory is released early. Returns the new generation.
func (s *Slot) Swap(rec core.Recommender, force bool) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.state.Load()
	next := &SlotState{Rec: rec, Gen: old.Gen + 1, base: old.base}
	if !rec.Dict().Extends(old.Rec.Dict()) {
		if !force {
			return 0, &ErrDictIncompatible{
				Slot:    s.name,
				OldHash: old.Rec.Dict().Hash(),
				NewHash: rec.Dict().Hash(),
			}
		}
		next.base = rec.Dict()
	}
	s.state.Store(next)
	s.reg.cache.Purge()
	return next.Gen, nil
}

// rebase records that the slot's current model answers contexts interned
// against base, when its dictionary extends base, and reports whether it
// does.
func (s *Slot) rebase(base *query.Dict) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	if st.base == base {
		return true
	}
	if !st.Rec.Dict().Extends(base) {
		return false
	}
	s.state.Store(&SlotState{Rec: st.Rec, Gen: st.Gen, base: base})
	return true
}

// Reloadable reports whether the slot was registered with a loader, i.e.
// whether Reload can do anything but fail.
func (s *Slot) Reloadable() bool { return s.loader != nil }

// Reload invokes the slot's configured loader and swaps the result in under
// the compatibility rules of Swap. Returns an error when no loader was
// configured (slots registered from an in-memory model only).
func (s *Slot) Reload(force bool) (uint64, error) {
	if s.loader == nil {
		return 0, fmt.Errorf("fleet: slot %q has no loader configured", s.name)
	}
	rec, err := s.loader()
	if err != nil {
		return 0, fmt.Errorf("fleet: reloading slot %q: %w", s.name, err)
	}
	return s.Swap(rec, force)
}

// Registry holds the fleet's named model slots and the one slot-keyed result
// cache they share. Slots are fixed after construction (registration is not
// concurrency-safe and happens at startup); the models inside them hot-swap
// freely at runtime.
type Registry struct {
	slots  []*Slot
	byName map[string]*Slot
	cache  *cache.SuggestCache
}

// NewRegistry returns an empty registry whose slots will share one result
// cache of about cacheCapacity entries (<= 0 selects the cache default).
func NewRegistry(cacheCapacity int) *Registry {
	return &Registry{
		byName: make(map[string]*Slot),
		cache:  cache.NewSuggestCache(cacheCapacity),
	}
}

// Add registers a named model with an optional loader for reload-by-name and
// returns its slot. Names must be unique and non-empty; registration happens
// at startup, before the registry serves traffic.
func (g *Registry) Add(name string, rec core.Recommender, loader func() (core.Recommender, error)) (*Slot, error) {
	if name == "" {
		return nil, errors.New("fleet: empty slot name")
	}
	if rec == nil {
		return nil, fmt.Errorf("fleet: nil model for slot %q", name)
	}
	if _, dup := g.byName[name]; dup {
		return nil, fmt.Errorf("fleet: duplicate slot name %q", name)
	}
	s := &Slot{name: name, id: uint32(len(g.slots)), loader: loader, reg: g}
	s.state.Store(&SlotState{Rec: rec, Gen: 1, base: rec.Dict()})
	g.slots = append(g.slots, s)
	g.byName[name] = s
	return s, nil
}

// Slot returns the named slot, or nil when unknown.
func (g *Registry) Slot(name string) *Slot { return g.byName[name] }

// Slots returns the registered slots in registration order. The slice is
// shared; callers must not mutate it.
func (g *Registry) Slots() []*Slot { return g.slots }

// Cache returns the registry's shared slot-keyed result cache.
func (g *Registry) Cache() *cache.SuggestCache { return g.cache }
