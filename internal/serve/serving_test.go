package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jsonspan"
	"repro/internal/query"
)

// altRecommender trains a second model whose dictionary extends the test
// recommender's (same base IDs, new vocabulary appended) but whose training
// data covers only the new vocabulary — a compatible retrain, used to
// observe hot reloads taking effect.
func altRecommender(t testing.TB) core.Recommender {
	t.Helper()
	d := query.NewDict()
	d.Intern("o2")
	d.Intern("o2 mobile")
	d.Intern("o2 mobile phones")
	a, b := d.Intern("smtp"), d.Intern("pop3")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b})
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

// incompatibleRecommender trains a model whose dictionary permutes the base
// IDs — the reload the compatibility check must refuse.
func incompatibleRecommender(t testing.TB) core.Recommender {
	t.Helper()
	d := query.NewDict()
	a, b := d.Intern("smtp"), d.Intern("pop3")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b})
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

func postBatch(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/suggest/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()

	body := `{"requests":[{"context":["o2"]},{"context":["o2","o2 mobile"],"n":1},{"context":["never seen"]}]}`
	resp := postBatch(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if len(out.Results[0].Suggestions) == 0 || out.Results[0].Suggestions[0].Query != "o2 mobile" {
		t.Fatalf("results[0] = %+v", out.Results[0])
	}
	if len(out.Results[1].Suggestions) != 1 || out.Results[1].Suggestions[0].Query != "o2 mobile phones" {
		t.Fatalf("results[1] = %+v", out.Results[1])
	}
	if len(out.Results[2].Suggestions) != 0 {
		t.Fatalf("unknown context results[2] = %+v", out.Results[2])
	}
	if out.TookMicros < 0 {
		t.Fatalf("TookMicros = %d", out.TookMicros)
	}
}

func TestBatchValidation(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()

	cases := []struct {
		name, body string
	}{
		{"invalid JSON", `{"requests":`},
		{"empty body", ``},
		{"no requests", `{"requests":[]}`},
		{"null requests", `{}`},
		{"empty context item", `{"requests":[{"context":[]}]}`},
		{"negative n", `{"requests":[{"context":["o2"],"n":-1}]}`},
		{"oversized n", `{"requests":[{"context":["o2"],"n":1000}]}`},
		{"unknown field", `{"requests":[{"context":["o2"]}],"bogus":1}`},
		{"over MaxBatchItems", `{"requests":[` + strings.Repeat(`{"context":["o2"]},`, jsonspan.MaxBatchItems) + `{"context":["o2"]}]}`},
	}
	for _, tc := range cases {
		resp := postBatch(t, srv.URL, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/suggest/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status = %d, want 405", resp.StatusCode)
	}
}

// TestBatchBodyGrammar is the regression table for the stray-comma bug: the
// batch parser used to skip ',' like whitespace in the body object, the
// requests array, an item and its context array, and the context array is
// echoed into the answer as it came — so `[,"o2",]` was answered 200 with a
// body encoding/json cannot read, and `["a""b"]` passed with no comma at all.
// Members are value (',' value)*, and an echoed string holds only JSON's
// escapes: the body is held to ARCHITECTURE §9's rule (jsonspan.AppendBatch),
// which accepts nothing encoding/json does not read and, of what it reads,
// refuses a key that repeats and anything after the object — a repeated
// "context" used to be scored as both arrays and echoed as the second.
// What is served is answered in JSON, and the context a result echoes is the
// context that was scored; everything else is a 400. Buffered and streamed
// alike.
func TestBatchBodyGrammar(t *testing.T) {
	h := New(testRecommender(t), Options{})
	for _, tc := range []struct {
		body   string
		ok     bool
		strict bool // refused though encoding/json reads it
	}{
		{body: `{"requests":[{"context":["o2"]}]}`, ok: true},
		{body: ` { "requests" : [ { "context" : [ "o2" , "o2 mobile" ] , "n" : 2 } , { "n" : 1 , "context" : [ "o2" ] } ] } `, ok: true},
		{body: `{"requests":[{"context":[,"o2",]}]}`}, // the reported body
		{body: `{"requests":[{"context":[,"o2"]}]}`},
		{body: `{"requests":[{"context":["o2",]}]}`},
		{body: `{"requests":[{"context":["o2",,"o2 mobile"]}]}`},
		{body: `{"requests":[{"context":["o2""o2 mobile"]}]}`},
		{body: `{"requests":[{"context":["o2" "o2 mobile"]}]}`},
		{body: `{"requests":[{"context":[,]}]}`},
		{body: `{"requests":[{,"context":["o2"]}]}`},
		{body: `{"requests":[{"context":["o2"],}]}`},
		{body: `{"requests":[{"context":["o2"],,"n":1}]}`},
		{body: `{"requests":[{"context":["o2"]"n":1}]}`},
		{body: `{"requests":[,{"context":["o2"]}]}`},
		{body: `{"requests":[{"context":["o2"]},]}`},
		{body: `{"requests":[{"context":["o2"]},,{"context":["o2"]}]}`},
		{body: `{"requests":[{"context":["o2"]}{"context":["o2"]}]}`},
		{body: `{,"requests":[{"context":["o2"]}]}`},
		{body: `{"requests":[{"context":["o2"]}],}`},
		{body: `{"requests":[{"context":["\u00e9\"\\\/\b\f\n\r\t"]}]}`, ok: true},
		{body: `{"requests":[{"context":["o\2"]}]}`}, // found by FuzzRoutedBatchNeverBlamesShard
		{body: `{"requests":[{"context":["\u12g4"]}]}`},
		{body: `{"requests":[{"context":["\u12"]}]}`},
		// A key at most once. The first body was answered 200 echoing
		// ["o2 mobile"] with the suggestions of ["o2","o2 mobile"].
		{body: `{"requests":[{"context":["o2"],"context":["o2 mobile"]}]}`, strict: true},
		{body: `{"requests":[{"context":["o2"],"n":1,"n":3}]}`, strict: true},
		{body: `{"requests":[{"context":["o2"]}],"requests":[{"context":["o2 mobile"]}]}`, strict: true},
		{body: `{"requests":[],"requests":[{"context":["o2"]}]}`, strict: true},
		// n is a JSON integer, and nothing follows the object.
		{body: `{"requests":[{"context":["o2"],"n":+2}]}`},
		{body: `{"requests":[{"context":["o2"],"n":02}]}`},
		{body: `{"requests":[{"context":["o2"],"n":1e0}]}`, strict: true},
		{body: `{"requests":[{"context":["o2"],"n":-0}]}`, ok: true},
		{body: `{"requests":[{"context":["o2"]}]}{"bogus":1}`},
		{body: `{"requests":[{"context":["o2"]}]}x`},
		{body: `{"requests":[{"context":["o2"]}]}` + "\n", ok: true},
	} {
		for _, target := range []string{"/suggest/batch", "/suggest/batch?stream=1"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, strings.NewReader(tc.body)))
			if want := json.Valid([]byte(tc.body)); want != (tc.ok || tc.strict) {
				t.Fatalf("table entry %s: encoding/json validity is %v", tc.body, want)
			}
			if !tc.ok {
				if rr.Code != http.StatusBadRequest {
					t.Errorf("%s %s: status %d, want 400: %s", target, tc.body, rr.Code, rr.Body)
				}
				continue
			}
			if rr.Code != http.StatusOK {
				t.Errorf("%s %s: status %d: %s", target, tc.body, rr.Code, rr.Body)
				continue
			}
			for _, line := range bytes.Split(bytes.TrimSpace(rr.Body.Bytes()), []byte("\n")) {
				if !json.Valid(line) {
					t.Errorf("%s %s: answer is not JSON: %s", target, tc.body, line)
				}
			}
			if target == "/suggest/batch" {
				assertEchoIsWhatWasScored(t, h, tc.body, rr.Body.Bytes())
			}
		}
	}
}

// assertEchoIsWhatWasScored re-asks every context a buffered batch answer
// echoes, as a fresh one-item batch with the item's n, and requires the same
// suggestions byte for byte: the echo names the context that was scored.
func assertEchoIsWhatWasScored(t *testing.T, h http.Handler, body string, answer []byte) {
	t.Helper()
	type result struct {
		Context     json.RawMessage `json:"context"`
		Suggestions json.RawMessage `json:"suggestions"`
	}
	var req BatchRequest
	var got struct{ Results []result }
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	if err := json.Unmarshal(answer, &got); err != nil || len(got.Results) != len(req.Requests) {
		t.Fatalf("%s: %d results for %d items (%v): %s", body, len(got.Results), len(req.Requests), err, answer)
	}
	for i, res := range got.Results {
		rr := httptest.NewRecorder()
		again := fmt.Sprintf(`{"requests":[{"context":%s,"n":%d}]}`, res.Context, req.Requests[i].N)
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/suggest/batch", strings.NewReader(again)))
		var fresh struct{ Results []result }
		if err := json.Unmarshal(rr.Body.Bytes(), &fresh); err != nil || len(fresh.Results) != 1 {
			t.Fatalf("%s: re-asking item %d as %s: %d %s", body, i, again, rr.Code, rr.Body)
		}
		if !bytes.Equal(fresh.Results[0].Suggestions, res.Suggestions) {
			t.Errorf("%s: item %d echoes %s with suggestions %s, but that context scores %s", body, i, res.Context, res.Suggestions, fresh.Results[0].Suggestions)
		}
	}
}

// TestCacheHitEquivalence verifies the acceptance criterion that cached
// results are byte-identical to uncached ones: the first request computes,
// the second hits the LRU, and the serialized suggestions must match
// exactly.
func TestCacheHitEquivalence(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()

	fetch := func() []byte {
		resp, err := http.Get(srv.URL + "/suggest?q=o2&q=o2+mobile")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SuggestResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		// took_us legitimately varies per request; the recommendation
		// payload must not.
		raw, err := json.Marshal(struct {
			Context     []string
			Suggestions []Suggestion
		}{out.Context, out.Suggestions})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	refused := fetch() // first sight: answered, not stored
	miss := fetch()    // second sight: stored
	hit := fetch()
	if !bytes.Equal(miss, hit) || !bytes.Equal(refused, hit) {
		t.Fatalf("cached response diverged:\nrefused: %s\nmiss:    %s\nhit:     %s", refused, miss, hit)
	}

	var m MetricsResponse
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 2 || m.Cache.Refused != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 hit / 2 misses, 1 refused", m.Cache)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/suggest?q=o2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp := postBatch(t, srv.URL, `{"requests":[{"context":["o2"]},{"context":["o2 mobile"]}]}`)
	resp.Body.Close()
	resp, err := http.Get(srv.URL + "/suggest") // missing q -> 400
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.SuggestRequests != 3 || m.BatchRequests != 1 || m.BatchContexts != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Errors != 1 {
		t.Fatalf("errors = %d, want 1", m.Errors)
	}
	if m.Requests != 6 { // 3 suggest + 1 batch + 1 bad + this /v1/metrics
		// The /v1/metrics request itself increments the counter before the
		// handler snapshots, so 6 = 3 + 1 + 1 + 1.
		t.Fatalf("requests = %d, want 6", m.Requests)
	}
	if m.LatencySamples != 4 { // every GET /suggest: the 3 served + the 400
		t.Fatalf("latency samples = %d, want 4", m.LatencySamples)
	}
	if m.P50Micros < 0 || m.P99Micros < m.P50Micros {
		t.Fatalf("quantiles p50=%d p99=%d", m.P50Micros, m.P99Micros)
	}
	if m.ModelGeneration != 1 || m.KnownQueries != 3 {
		t.Fatalf("model metrics = %+v", m)
	}
}

func TestConcurrentSuggest(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()
	client := srv.Client()

	contexts := []string{"o2", "o2+mobile", "o2&q=o2+mobile", "unknown+thing"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := client.Get(srv.URL + "/suggest?q=" + contexts[(g+i)%len(contexts)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReloadSwapsWithoutDroppingRequests hammers /suggest while the model
// is hot-swapped via POST /v1/reload; every request must succeed, and after
// the swap the new model's vocabulary must answer.
func TestReloadSwapsWithoutDroppingRequests(t *testing.T) {
	alt := altRecommender(t)
	h := New(testRecommender(t), Options{
		ReloadFunc: func() (core.Recommender, error) { return alt, nil },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(srv.URL + "/suggest?q=o2")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("request dropped during reload: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	resp, err := client.Post(srv.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rl.Generation != 2 || rl.KnownQueries != 5 {
		t.Fatalf("reload response = %d %+v", resp.StatusCode, rl)
	}
	close(stop)
	wg.Wait()

	// The swapped-in model must serve its own vocabulary...
	sresp, err := client.Get(srv.URL + "/suggest?q=smtp")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var out SuggestResponse
	if err := json.NewDecoder(sresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Suggestions) == 0 || out.Suggestions[0].Query != "pop3" {
		t.Fatalf("post-reload suggestions = %+v", out.Suggestions)
	}
	// ...and no stale cache entry may answer for the old vocabulary.
	oresp, err := client.Get(srv.URL + "/suggest?q=o2")
	if err != nil {
		t.Fatal(err)
	}
	defer oresp.Body.Close()
	out = SuggestResponse{}
	if err := json.NewDecoder(oresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Suggestions) != 0 {
		t.Fatalf("old vocabulary answered after reload: %+v", out.Suggestions)
	}
	if got := h.champion().Gen; got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}
}

// TestReloadErrors: the one-slot handler New builds answers a reload with
// no loader 501 (named or not) and an unknown model 404; a failing loader
// answers 500 and leaves the old model serving, at its generation.
func TestReloadErrors(t *testing.T) {
	// Not configured -> 501.
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/v1/reload", http.StatusNotImplemented},
		{http.MethodPost, "/v1/reload?model=default&force=1", http.StatusNotImplemented},
		{http.MethodPost, "/v1/reload?model=nope", http.StatusNotFound},
		{http.MethodGet, "/v1/reload", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	srv.Close()

	// Failing ReloadFunc -> 500, old model keeps serving.
	h := New(testRecommender(t), Options{
		ReloadFunc: func() (core.Recommender, error) { return nil, fmt.Errorf("disk gone") },
	})
	srv = httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload status = %d, want 500", resp.StatusCode)
	}
	if gen := h.champion().Gen; gen != 1 {
		t.Fatalf("generation bumped on failed reload: %d", gen)
	}
	var models ModelsResponse
	getJSON(t, srv.Client(), srv.URL+"/v1/models", &models)
	if len(models.Models) != 1 || !models.Models[0].Reloadable || models.Models[0].Generation != 1 {
		t.Fatalf("/v1/models after a failed reload = %+v", models)
	}
	if got, _ := suggestionsOf(t, h, "/suggest?q=o2"); len(got) == 0 || got[0].Query != "o2 mobile" {
		t.Fatalf("old model stopped serving after failed reload: %+v", got)
	}
}

// TestPanicRecovery drives the instrumentation middleware with a panicking
// handler: the client must see a 500 and the panic counter must move.
func TestPanicRecovery(t *testing.T) {
	h := New(testRecommender(t), Options{})
	boom := h.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rr := httptest.NewRecorder()
	boom.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/suggest", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("recovered status = %d, want 500", rr.Code)
	}
	if got := h.m.panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	if got := h.m.errors.Load(); got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
}

func TestHealthGeneration(t *testing.T) {
	h := New(testRecommender(t), Options{
		ReloadFunc: func() (core.Recommender, error) { return altRecommender(t), nil },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	postReload(t, h, "/v1/reload")
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hp Health
	if err := json.NewDecoder(resp.Body).Decode(&hp); err != nil {
		t.Fatal(err)
	}
	if hp.Generation != 2 || hp.KnownQueries != 5 {
		t.Fatalf("health after reload = %+v", hp)
	}
}

// TestHealthReportsBlobProvenance: a handler serving a LoadPath'd model must
// surface the file's container magic (which names the blob encoding), the
// blob's byte length and its quantised flag through /healthz and /v1/metrics
// — the observability contract for the quantised deployment — and no
// separate blob-format field.
func TestHealthReportsBlobProvenance(t *testing.T) {
	rec := testRecommender(t).(*core.Engine)
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	srv := httptest.NewServer(New(loaded, Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var hp Health
	if err := json.Unmarshal(body, &hp); err != nil {
		t.Fatal(err)
	}
	if !hp.Compiled || !hp.Quantised || hp.BlobBytes <= 0 || bytes.Contains(body, []byte("model_blob_format")) {
		t.Fatalf("healthz blob provenance = %+v", hp)
	}
	if hp.LoadMode == "" || hp.LoadVersion != "QRECV006" {
		t.Fatalf("healthz load provenance = %+v", hp)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if body, err = io.ReadAll(mresp.Body); err != nil {
		t.Fatal(err)
	}
	var mp MetricsResponse
	if err := json.Unmarshal(body, &mp); err != nil {
		t.Fatal(err)
	}
	if !mp.Quantised || mp.BlobBytes != hp.BlobBytes || bytes.Contains(body, []byte("model_blob_format")) {
		t.Fatalf("metrics blob provenance = %+v", mp)
	}
}
