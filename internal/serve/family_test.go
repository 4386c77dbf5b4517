package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hmm"
	"repro/internal/pairwise"
	"repro/internal/query"
)

// familyFixture trains the MVMM champion and the raw sessions behind it, so
// tests can build family arms over the exact same dictionary.
func familyFixture(t testing.TB) (*query.Dict, []query.Session, core.Recommender) {
	t.Helper()
	d := query.NewDict()
	a, b, c := d.Intern("o2"), d.Intern("o2 mobile"), d.Intern("o2 mobile phones")
	var raw []query.Seq
	for i := 0; i < 10; i++ {
		raw = append(raw, query.Seq{a, b, c})
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	sessions := []query.Session{{Queries: query.Seq{a, b, c}, Count: 10}}
	return d, sessions, core.TrainFromSessions(d, raw, cfg)
}

// TestHMMShadowArmCrossFamilyMetrics is the tentpole acceptance test: an HMM
// arm lifted through core.FromPredictor rides as a weight-0 shadow next to
// the MVMM champion, and /v1/metrics reports its divergence tagged with the
// "hmm" family — the live cross-family comparison.
func TestHMMShadowArmCrossFamilyMetrics(t *testing.T) {
	d, sessions, champ := familyFixture(t)
	cfg := hmm.DefaultConfig(d.Len())
	cfg.States = 4
	m, err := hmm.Train(sessions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadowRec := core.FromPredictor(d, m, core.LoadInfo{})

	reg := fleet.NewRegistry(0)
	if _, err := reg.Add("champion", champ, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("hmm-shadow", shadowRec, nil); err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.NewRouter(reg,
		fleet.ArmSpec{Name: "champion", Weight: 1},
		fleet.ArmSpec{Name: "hmm-shadow", Weight: 0})
	if err != nil {
		t.Fatal(err)
	}
	h := New(champ, Options{DefaultN: 5, Fleet: rt})
	srv := httptest.NewServer(h)
	defer srv.Close()

	for i := 0; i < 16; i++ {
		resp, err := http.Get(srv.URL + "/suggest?q=o2&q=o2+mobile")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var mr MetricsResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if mr.Fleet == nil || len(mr.Fleet.Shadows) != 1 {
			t.Fatalf("fleet metrics = %+v", mr.Fleet)
		}
		sh := mr.Fleet.Shadows[0]
		if sh.Samples+sh.Dropped >= 16 {
			if sh.Family != "hmm" {
				t.Fatalf("shadow family = %q, want hmm (stats %+v)", sh.Family, sh)
			}
			if sh.Samples > 0 && (sh.Coverage < 0 || sh.Coverage > 1) {
				t.Fatalf("shadow coverage %v outside [0,1]", sh.Coverage)
			}
			if sh.Top1MismatchRate < 0 || sh.MeanRankOverlap < 0 {
				t.Fatalf("divergence metrics missing: %+v", sh)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow scored only %+v of 16 requests", sh)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPairwiseRerankOnChampion wires the optional second-stage pairwise
// rerank onto the champion arm and checks both the serving path (valid,
// complete answers) and its /v1/models exposure.
func TestPairwiseRerankOnChampion(t *testing.T) {
	d, sessions, champ := familyFixture(t)
	adj := pairwise.NewAdjacency(sessions, d.Len())

	reg := fleet.NewRegistry(0)
	if _, err := reg.Add("champion", champ, nil); err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.NewRouter(reg, fleet.ArmSpec{Name: "champion", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	rk, err := fleet.NewPairwiseReranker(adj, d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRerank("champion", rk); err != nil {
		t.Fatal(err)
	}
	h := New(champ, Options{DefaultN: 5, Fleet: rt})
	srv := httptest.NewServer(h)
	defer srv.Close()

	baseline := core.Recommend(champ, []string{"o2"}, 5)
	if len(baseline) == 0 {
		t.Fatal("champion serves nothing")
	}
	resp, err := http.Get(srv.URL + "/suggest?q=o2")
	if err != nil {
		t.Fatal(err)
	}
	var out SuggestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Suggestions) != len(baseline) {
		t.Fatalf("rerank changed answer size: %d vs %d", len(out.Suggestions), len(baseline))
	}
	// Reranking reorders; it must not invent or drop candidates.
	want := make(map[string]bool, len(baseline))
	for _, s := range baseline {
		want[s.Query] = true
	}
	for _, s := range out.Suggestions {
		if !want[s.Query] {
			t.Fatalf("reranked answer invented %q (baseline %+v)", s.Query, baseline)
		}
	}

	mresp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models ModelsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	found := false
	for _, mi := range models.Models {
		if mi.Name == "champion" {
			found = true
			if mi.Rerank != rk.Name() {
				t.Fatalf("models rerank = %q, want %q", mi.Rerank, rk.Name())
			}
			if mi.Family != "mvmm" {
				t.Fatalf("champion family = %q, want mvmm", mi.Family)
			}
		}
	}
	if !found {
		t.Fatal("champion row missing from /v1/models")
	}
}

// TestV1MigrationAndErrorEnvelope pins the /v1 mounting contract now that
// the one release of legacy paths is over: the unversioned admin paths that
// used to 301 (or, for POST /reload, alias) answer the 404 envelope like any
// unknown path, /healthz and /v1/healthz both answer directly (probes do not
// follow redirects), and every non-2xx answer carries the JSON error envelope.
func TestV1MigrationAndErrorEnvelope(t *testing.T) {
	h := New(testRecommender(t), Options{})
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, rr.Code)
		}
	}
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"GET", "/models", http.StatusNotFound},
		{"GET", "/route?q=o2", http.StatusNotFound},
		{"POST", "/reload", http.StatusNotFound},
		{"GET", "/no-such-endpoint", http.StatusNotFound},
		{"GET", "/suggest", http.StatusBadRequest},
		{"POST", "/v1/metrics", http.StatusMethodNotAllowed},
		{"POST", "/v1/reload", http.StatusNotImplemented}, // no ReloadFunc configured
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.path, nil))
		if rr.Code != tc.status {
			t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, rr.Code, tc.status)
		}
		var env ErrorBody
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("%s %s: malformed error envelope (err=%v, env=%+v)", tc.method, tc.path, err, env)
		}
	}
}
