package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// TestAdminStateMerge pins the reconciliation rule: higher version wins,
// lower loses, and equal versions with different values resolve the same way
// regardless of merge order (the Bayou convergence property), counted as a
// conflict.
func TestAdminStateMerge(t *testing.T) {
	e := func(key string, v uint64, val string) fleet.AdminEntry {
		return fleet.AdminEntry{Key: key, Version: v, Value: json.RawMessage(val)}
	}
	a := fleet.NewAdminState()
	if !a.Put(e("k", 1, `"old"`)) {
		t.Fatal("first put rejected")
	}
	if a.Put(e("k", 1, `"old"`)) {
		t.Fatal("identical entry re-applied")
	}
	if !a.Put(e("k", 2, `"new"`)) {
		t.Fatal("newer version rejected")
	}
	if a.Put(e("k", 1, `"stale"`)) {
		t.Fatal("stale version applied")
	}
	if got := a.Snapshot(); len(got) != 1 || string(got[0].Value) != `"new"` || got[0].Version != 2 {
		t.Fatalf("snapshot = %+v", got)
	}

	// Convergence: two states receiving the same equal-version conflicting
	// entries in opposite orders must agree.
	x, y := fleet.NewAdminState(), fleet.NewAdminState()
	x.Merge([]fleet.AdminEntry{e("c", 5, `"aaa"`)})
	x.Merge([]fleet.AdminEntry{e("c", 5, `"zzz"`)})
	y.Merge([]fleet.AdminEntry{e("c", 5, `"zzz"`)})
	y.Merge([]fleet.AdminEntry{e("c", 5, `"aaa"`)})
	xs, ys := x.Snapshot(), y.Snapshot()
	if string(xs[0].Value) != string(ys[0].Value) {
		t.Fatalf("divergence: %s vs %s", xs[0].Value, ys[0].Value)
	}
	if x.Stats().Conflicts == 0 {
		t.Fatal("conflict not counted")
	}
}

// TestAntiEntropyPeerPull is the Bayou scenario end to end: router A fronts
// reloadable shards and learns their generations first-hand after a reload;
// router B cannot reach any shard's admin surface, but pulling A via
// anti-entropy gives it the same reconciled view — B answers admin reads
// after a peer performed the reload.
func TestAntiEntropyPeerPull(t *testing.T) {
	rec := shardTestRec(t)
	handlers := make([]http.Handler, 2)
	for i := range handlers {
		handlers[i] = serve.New(rec, serve.Options{
			DefaultN:   5,
			ReloadFunc: func() (core.Recommender, error) { return shardTestRec(t), nil },
		})
	}
	routerA, err := fleet.NewShardRouterOpts(fleet.NewRing(2, 0), fleet.NewLoopbackTransport(handlers...), fleet.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(routerA)
	defer srvA.Close()

	// B's shards refuse admin reads: everything it knows must come from A.
	deaf := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "admin disabled", http.StatusInternalServerError)
	})
	routerB, err := fleet.NewShardRouterOpts(fleet.NewRing(2, 0), fleet.NewLoopbackTransport(deaf, deaf), fleet.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	routerB.SetPeers([]string{srvA.URL}, nil)

	// Reload through A: the broadcast itself refreshes A's admin state.
	resp, err := http.Post(srvA.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload via A: status %d", resp.StatusCode)
	}

	genOf := func(entries []fleet.AdminEntry, key string) uint64 {
		for _, e := range entries {
			if e.Key == key {
				var rows []struct {
					Generation uint64 `json:"generation"`
				}
				if err := json.Unmarshal(e.Value, &rows); err != nil || len(rows) == 0 {
					t.Fatalf("entry %s: %v: %s", key, err, e.Value)
				}
				return rows[0].Generation
			}
		}
		t.Fatalf("no entry %s in %+v", key, entries)
		return 0
	}
	if got := genOf(routerA.Admin().Snapshot(), "shard/0/models"); got != 2 {
		t.Fatalf("A sees generation %d after reload, want 2", got)
	}

	// One sweep on B: nothing first-hand (its shards 500), everything via A.
	if applied := routerB.SweepOnce(context.Background()); applied == 0 {
		t.Fatal("B's sweep applied nothing")
	}
	if got := genOf(routerB.Admin().Snapshot(), "shard/0/models"); got != 2 {
		t.Fatalf("B sees generation %d after peer pull, want 2", got)
	}
	st := routerB.Admin().Stats()
	if st.Sweeps != 1 || st.Merges == 0 {
		t.Fatalf("B stats = %+v", st)
	}

	// B's /v1/fleet serves the reconciled entries to the next peer over.
	srvB := httptest.NewServer(routerB)
	defer srvB.Close()
	raw, _, code := getBody(t, srvB.URL+"/v1/fleet")
	if code != http.StatusOK {
		t.Fatalf("/v1/fleet status %d", code)
	}
	var doc fleet.FleetStateResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if genOf(doc.Entries, "shard/1/models") != 2 {
		t.Fatalf("B's /v1/fleet misses the reload: %s", raw)
	}

	// A second reload through A advances the version; B's periodic loop
	// converges without being told.
	resp, err = http.Post(srvA.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stop := routerB.StartAntiEntropy(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for genOf(routerB.Admin().Snapshot(), "shard/0/models") != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("B never converged: %+v", routerB.Admin().Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
