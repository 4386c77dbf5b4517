package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

func testRecommender(t *testing.T) core.Recommender {
	t.Helper()
	d := query.NewDict()
	a, b, c := d.Intern("o2"), d.Intern("o2 mobile"), d.Intern("o2 mobile phones")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b, c})
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	rec, err := core.TrainFromSessions(d, sessions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestSuggestEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/suggest?q=o2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SuggestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	if out.Suggestions[0].Query != "o2 mobile" {
		t.Fatalf("top suggestion = %q", out.Suggestions[0].Query)
	}
	if out.TookMicros < 0 {
		t.Fatalf("TookMicros = %d", out.TookMicros)
	}
}

func TestSuggestMultiQueryContext(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/suggest?q=o2&q=o2+mobile&n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SuggestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Suggestions) != 1 || out.Suggestions[0].Query != "o2 mobile phones" {
		t.Fatalf("suggestions = %+v", out.Suggestions)
	}
	if len(out.Context) != 2 {
		t.Fatalf("context echoed %d queries", len(out.Context))
	}
}

func TestSuggestValidation(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()
	for _, path := range []string{"/suggest", "/suggest?q=o2&n=0", "/suggest?q=o2&n=abc", "/suggest?q=o2&n=1000"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/suggest?q=o2", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestSuggestUnknownContext(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/suggest?q=never+seen+before")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SuggestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Suggestions) != 0 {
		t.Fatalf("unknown context got suggestions: %+v", out.Suggestions)
	}
}

func TestHealthEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.KnownQueries != 3 || h.TrainSessions != 10 {
		t.Fatalf("health = %+v", h)
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
