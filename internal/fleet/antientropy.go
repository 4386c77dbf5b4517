package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Bayou-style anti-entropy for fleet admin state. Router replicas each hold
// an AdminState: a versioned key/value map of what the fleet looks like
// (per-shard model lists, arm weights, dict generations). A router learns
// its shards' state first-hand on reload and on periodic sweeps, and pulls
// peers' entries over GET /v1/fleet, merging with a last-writer-wins rule
// whose tie-break is deterministic — so any two routers that have exchanged
// entries converge to the same map regardless of message order, and any
// router answers admin reads correctly after a peer performed the reload.

// AdminEntry is one versioned fact in the reconciled admin state. Version is
// monotone per key at the writer (the sum of model generations for shard
// model-list entries); Value is the canonical JSON encoding of the fact.
type AdminEntry struct {
	Key     string          `json:"key"`
	Version uint64          `json:"version"`
	Value   json.RawMessage `json:"value"`
}

// AdminStateStats counts an AdminState's reconciliation activity for
// /v1/metrics.
type AdminStateStats struct {
	Entries   int    `json:"entries"`
	Sweeps    uint64 `json:"sweeps"`
	Merges    uint64 `json:"merges"`    // entries accepted from shards or peers
	Conflicts uint64 `json:"conflicts"` // equal-version, different-value merges
}

// AdminState is one router replica's reconciled view of fleet admin facts.
// Safe for concurrent use.
type AdminState struct {
	mu        sync.Mutex
	entries   map[string]AdminEntry
	sweeps    uint64
	merges    uint64
	conflicts uint64
}

// NewAdminState returns an empty admin state.
func NewAdminState() *AdminState {
	return &AdminState{entries: make(map[string]AdminEntry)}
}

// Put records a first-hand observation: the entry is applied iff it is newer
// than (or tie-break-wins against) what the state already holds. Returns
// whether the entry was applied.
func (a *AdminState) Put(e AdminEntry) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applyLocked(e)
}

// Merge folds a peer's entries in: per key, the higher version wins; equal
// versions with different values resolve deterministically (the
// lexicographically larger value wins, counted as a conflict) so replicas
// converge regardless of exchange order. Returns how many entries were
// applied.
func (a *AdminState) Merge(entries []AdminEntry) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, e := range entries {
		if a.applyLocked(e) {
			n++
		}
	}
	return n
}

func (a *AdminState) applyLocked(e AdminEntry) bool {
	cur, ok := a.entries[e.Key]
	if ok {
		if e.Version < cur.Version {
			return false
		}
		if e.Version == cur.Version {
			c := bytes.Compare(e.Value, cur.Value)
			if c == 0 {
				return false
			}
			a.conflicts++
			if c < 0 {
				return false
			}
		}
	}
	a.entries[e.Key] = AdminEntry{Key: e.Key, Version: e.Version, Value: bytes.Clone(e.Value)}
	a.merges++
	return true
}

// Snapshot returns the entries sorted by key — the /v1/fleet payload and the
// unit peers pull during sweeps.
func (a *AdminState) Snapshot() []AdminEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AdminEntry, 0, len(a.entries))
	for _, e := range a.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Stats reports the state's reconciliation counters.
func (a *AdminState) Stats() AdminStateStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdminStateStats{
		Entries:   len(a.entries),
		Sweeps:    a.sweeps,
		Merges:    a.merges,
		Conflicts: a.conflicts,
	}
}

func (a *AdminState) countSweep() {
	a.mu.Lock()
	a.sweeps++
	a.mu.Unlock()
}

// adminModelRow is the canonical (order- and field-stable) projection of one
// shard model used in admin entries: just the facts anti-entropy reconciles —
// identity, generation, dict hash, routing weight, family.
type adminModelRow struct {
	Name       string `json:"name"`
	Family     string `json:"family,omitempty"`
	Weight     uint32 `json:"weight"`
	Generation uint64 `json:"generation"`
	DictHash   string `json:"dict_hash"`
}

// shardModelsDoc decodes the slice of a shard's GET /v1/models payload that
// anti-entropy projects into admin entries.
type shardModelsDoc struct {
	Models []adminModelRow `json:"models"`
}

// FleetStateResponse is the router's GET /v1/fleet payload: the reconciled
// admin entries plus the reconciliation counters. Peers pull it during
// anti-entropy sweeps.
type FleetStateResponse struct {
	Role    string          `json:"role"`
	Entries []AdminEntry    `json:"entries"`
	Stats   AdminStateStats `json:"stats"`
}

// fleetState serves GET /v1/fleet.
func (s *ShardRouter) fleetState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	obs.WriteJSON(w, http.StatusOK, FleetStateResponse{
		Role:    "router",
		Entries: s.admin.Snapshot(),
		Stats:   s.admin.Stats(),
	})
}

// SetPeers configures the other router replicas this router pulls admin
// state from during anti-entropy sweeps: base URLs (e.g.
// "http://router-1:8080") and the client to reach them with (nil selects the
// same defaulted client NewHTTPTransport builds).
func (s *ShardRouter) SetPeers(peers []string, client *http.Client) {
	if client == nil {
		client = defaultHTTPClient()
	}
	s.peerMu.Lock()
	s.peers = append([]string(nil), peers...)
	s.peerClient = client
	s.peerMu.Unlock()
}

// RefreshAdmin re-reads every shard's model list first-hand and folds it
// into the reconciled admin state. Entry versions are the sum of the shard's
// model generations — monotone across reloads (generations only advance and
// slots are never removed), so a stale router can never overwrite a newer
// observation. Shards that fail to answer are skipped (their last entry
// stands). Returns the number of entries applied.
func (s *ShardRouter) RefreshAdmin(ctx context.Context) int {
	applied := 0
	for shard := 0; shard < s.ring.Shards(); shard++ {
		status, body, err := s.tr.Exchange(ctx, shard, http.MethodGet, "/v1/models", nil, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var doc shardModelsDoc
		if json.Unmarshal(body, &doc) != nil {
			continue
		}
		sort.Slice(doc.Models, func(i, j int) bool { return doc.Models[i].Name < doc.Models[j].Name })
		version := uint64(0)
		for _, m := range doc.Models {
			version += m.Generation
		}
		value, err := json.Marshal(doc.Models)
		if err != nil {
			continue
		}
		if s.admin.Put(AdminEntry{
			Key:     fmt.Sprintf("shard/%d/models", shard),
			Version: version,
			Value:   value,
		}) {
			applied++
		}
	}
	return applied
}

// SweepOnce runs one anti-entropy round: refresh first-hand shard state,
// then pull each configured peer's /v1/fleet and merge. Peer failures are
// tolerated — a sweep is best-effort and the next one retries. Returns the
// number of entries applied.
func (s *ShardRouter) SweepOnce(ctx context.Context) int {
	applied := s.RefreshAdmin(ctx)
	s.peerMu.Lock()
	peers := s.peers
	client := s.peerClient
	s.peerMu.Unlock()
	for _, peer := range peers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/fleet", nil)
		if err != nil {
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		var doc FleetStateResponse
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		applied += s.admin.Merge(doc.Entries)
	}
	s.admin.countSweep()
	return applied
}

// StartAntiEntropy launches the periodic sweep loop and returns its stop
// function. interval <= 0 selects 5s.
func (s *ShardRouter) StartAntiEntropy(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		s.SweepOnce(ctx)
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.SweepOnce(ctx)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
