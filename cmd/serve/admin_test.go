package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
)

// adminTestRec trains a tiny model for the serving mounts.
func adminTestRec(t *testing.T) core.Recommender {
	t.Helper()
	d := query.NewDict()
	a, b := d.Intern("o2"), d.Intern("o2 mobile")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b})
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	return core.TrainFromSessions(d, sessions, cfg)
}

// TestAdminSurfaceAgrees holds the four processes that mount obs.Admin — the
// handler New builds for one model, one given a fleet, a 2-shard loopback router and
// -role ingest's listener — to one table: per admin path and method the same
// status and Content-Type, an error envelope on every non-2xx, and a
// Prometheus exposition obs.ParsePrometheus reads wherever one is served.
func TestAdminSurfaceAgrees(t *testing.T) {
	rec := adminTestRec(t)
	reg := fleet.NewRegistry(1 << 10)
	if _, err := reg.Add("champion", rec, nil); err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.NewRouter(reg, fleet.ArmSpec{Name: "champion", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(2, 0),
		fleet.NewLoopbackTransport(serve.New(rec, serve.Options{}), serve.New(rec, serve.Options{})), fleet.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ingest, err := build(mustConfig(t, "-role", "ingest", "-model", "", "-addr", "",
		"-ingest-log", filepath.Join(dir, "queries.log"), "-ingest-wal", filepath.Join(dir, "ingest.wal")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ingest.close() })
	mounts := map[string]http.Handler{
		"single": serve.New(rec, serve.Options{}),
		"fleet":  serve.New(rec, serve.Options{Fleet: rt}),
		"router": router,
		"ingest": ingest.handler,
	}

	const (
		js   = "application/json"
		prom = "text/plain; version=0.0.4; charset=utf-8"
	)
	for _, tc := range []struct {
		method, target string
		status         int
		ctype          string
	}{
		{"GET", "/healthz", 200, js},
		{"GET", "/v1/healthz", 200, js},
		{"GET", "/metrics", 200, prom},
		{"GET", "/v1/metrics", 200, js},
		{"GET", "/v1/metrics?format=prometheus", 200, prom},
		{"POST", "/metrics", 405, js},
		{"POST", "/v1/metrics", 405, js},
		{"POST", "/v1/metrics?format=prometheus", 405, js},
		{"GET", "/v1/traces", 200, js},
		{"GET", "/v1/traces?min_us=0&error=1&limit=2", 200, js},
		{"GET", "/v1/traces?min_us=x", 400, js},
		{"GET", "/v1/traces?limit=x", 400, js},
		{"POST", "/v1/traces", 405, js},
		{"GET", "/models", 404, js},
		{"GET", "/route?q=o2", 404, js},
		{"GET", "/fleet", 404, js},
		{"POST", "/reload", 404, js},
		{"GET", "/no-such-endpoint", 404, js},
	} {
		for name, h := range mounts {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.target, nil))
			what := name + " " + tc.method + " " + tc.target
			if rr.Code != tc.status || rr.Header().Get("Content-Type") != tc.ctype {
				t.Errorf("%s = %d %q, want %d %q: %s", what, rr.Code, rr.Header().Get("Content-Type"), tc.status, tc.ctype, rr.Body)
				continue
			}
			switch {
			case tc.status >= 300:
				var env struct {
					Error struct{ Code, Message string }
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
					t.Errorf("%s: no error envelope (%v): %s", what, err, rr.Body)
				}
			case tc.ctype == prom:
				if fams, err := obs.ParsePrometheus(rr.Body.Bytes()); err != nil || len(fams) == 0 {
					t.Errorf("%s: exposition does not parse (%v, %d families)", what, err, len(fams))
				}
			case !json.Valid(rr.Body.Bytes()):
				t.Errorf("%s: body is not JSON: %s", what, rr.Body)
			}
		}
	}
}
