package fleet_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/query"
	"repro/internal/serve"
)

func shardTestRec(t testing.TB) core.Recommender {
	t.Helper()
	d := query.NewDict()
	a, b, c := d.Intern("o2"), d.Intern("o2 mobile"), d.Intern("o2 mobile phones")
	x, y := d.Intern("nokia n73"), d.Intern("nokia n73 themes")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b, c}, query.Seq{x, y})
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	return core.TrainFromSessions(d, sessions, cfg)
}

// tookRE strips the request-timing members, the only legitimately
// nondeterministic bytes in a /suggest response.
var tookRE = regexp.MustCompile(`"took_us":\d+`)

func stripTook(body []byte) string {
	return tookRE.ReplaceAllString(string(body), `"took_us":X`)
}

func getBody(t *testing.T, url string) ([]byte, http.Header, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, resp.Header, resp.StatusCode
}

// newLoopbackRing builds a 3-shard loopback ring over handlers sharing one
// model — the in-process deployment of the consistent-hash fan-out.
func newLoopbackRing(t testing.TB, rec core.Recommender, shards int) *fleet.ShardRouter {
	t.Helper()
	handlers := make([]http.Handler, shards)
	for i := range handlers {
		handlers[i] = serve.NewHandler(rec, 5)
	}
	router, err := fleet.NewShardRouter(fleet.NewRing(shards, 0), fleet.NewLoopbackTransport(handlers...))
	if err != nil {
		t.Fatal(err)
	}
	return router
}

// TestLoopbackExchangeNilContext: a nil context carries no deadline, no
// cancellation and no trace header — the loopback transport serves under one
// as HTTPTransport does, where it used to hand it on to
// obs.TraceHeaderFromContext and panic, and the shard generates its own ID.
func TestLoopbackExchangeNilContext(t *testing.T) {
	var seen []string
	shard := serve.NewHandler(shardTestRec(t), 5)
	tr := fleet.NewLoopbackTransport(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header["X-Trace-Id"]
		shard.ServeHTTP(w, r)
	}))
	status, body, err := tr.Exchange(nil, 0, http.MethodGet, "/suggest?q=o2", nil, nil)
	if err != nil || status != http.StatusOK || !strings.Contains(string(body), `"suggestions"`) {
		t.Fatalf("exchange under a nil context: status %d, err %v, body %s", status, err, body)
	}
	if seen != nil {
		t.Fatalf("a nil context propagated X-Trace-Id %q", seen)
	}
}

// TestLoopbackRingByteIdentical is the acceptance check for the shard ring:
// a 3-shard loopback ring must answer /suggest with byte-identical bodies to
// direct single-model serving (modulo the timing member), label each
// response with its shard, and route each context to exactly one sticky
// shard that /route agrees with.
func TestLoopbackRingByteIdentical(t *testing.T) {
	rec := shardTestRec(t)
	direct := httptest.NewServer(serve.NewHandler(rec, 5))
	defer direct.Close()
	router := newLoopbackRing(t, rec, 3)
	ringSrv := httptest.NewServer(router)
	defer ringSrv.Close()

	queries := []string{
		"q=o2", "q=o2+mobile", "q=o2&q=o2+mobile", "q=nokia+n73",
		"q=nokia%20n73&n=2", "q=o2+mobile+phones&q=o2", "q=unknown+stuff",
		"q=o2&n=1",
	}
	shardsSeen := map[string]bool{}
	for _, qs := range queries {
		wantBody, _, wantCode := getBody(t, direct.URL+"/suggest?"+qs)
		gotBody, hdr, gotCode := getBody(t, ringSrv.URL+"/suggest?"+qs)
		if wantCode != gotCode {
			t.Fatalf("%s: status %d vs %d", qs, gotCode, wantCode)
		}
		if stripTook(gotBody) != stripTook(wantBody) {
			t.Fatalf("%s:\nring:   %s\ndirect: %s", qs, gotBody, wantBody)
		}
		shard := hdr.Get("X-Serve-Shard")
		if shard == "" {
			t.Fatalf("%s: missing X-Serve-Shard", qs)
		}
		shardsSeen[shard] = true

		// Stickiness: replay must hit the same shard, and /route must agree.
		for rep := 0; rep < 2; rep++ {
			_, hdr2, _ := getBody(t, ringSrv.URL+"/suggest?"+qs)
			if got := hdr2.Get("X-Serve-Shard"); got != shard {
				t.Fatalf("%s flapped shards: %s then %s", qs, shard, got)
			}
		}
		raw, _, _ := getBody(t, ringSrv.URL+"/route?"+qs)
		var ri fleet.RouteResponse
		if err := json.Unmarshal(raw, &ri); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ri.Shard) != shard {
			t.Fatalf("%s: /route says shard %d but %s served", qs, ri.Shard, shard)
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("8 distinct contexts all landed on shards %v", shardsSeen)
	}
}

// TestRingBatchFanout: a batch spanning several shards must come back
// complete, in order, and with the same suggestions the direct handler
// produces.
func TestRingBatchFanout(t *testing.T) {
	rec := shardTestRec(t)
	direct := httptest.NewServer(serve.NewHandler(rec, 5))
	defer direct.Close()
	router := newLoopbackRing(t, rec, 3)
	ringSrv := httptest.NewServer(router)
	defer ringSrv.Close()

	body := `{"requests":[{"context":["o2"]},{"context":["nokia n73"],"n":1},{"context":["o2","o2 mobile"]},{"context":["never seen"]}]}`
	post := func(url string) serve.BatchResponse {
		resp, err := http.Post(url+"/suggest/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, raw)
		}
		var out serve.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := post(direct.URL), post(ringSrv.URL)
	if len(got.Results) != len(want.Results) {
		t.Fatalf("ring answered %d results, direct %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if len(got.Results[i].Context) != len(want.Results[i].Context) {
			t.Fatalf("result %d context mismatch", i)
		}
		ws, gs := want.Results[i].Suggestions, got.Results[i].Suggestions
		if len(ws) != len(gs) {
			t.Fatalf("result %d: ring %d suggestions, direct %d", i, len(gs), len(ws))
		}
		for j := range ws {
			if ws[j] != gs[j] {
				t.Fatalf("result %d suggestion %d: ring %+v, direct %+v", i, j, gs[j], ws[j])
			}
		}
	}

	// Router metrics: the batch counted, fan-outs happened, and shard
	// counters sum to the routed contexts.
	raw, _, _ := getBody(t, ringSrv.URL+"/metrics")
	var m fleet.ShardRouterMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.BatchRequests != 1 || m.BatchFanouts == 0 {
		t.Fatalf("router metrics = %+v", m)
	}
	var sum uint64
	for _, c := range m.ContextsPerShard {
		sum += c
	}
	if sum != 4 {
		t.Fatalf("per-shard contexts sum to %d, want 4 (%+v)", sum, m)
	}
}

// TestHTTPTransportFanout runs the same ring over real HTTP shard servers —
// the distributed deployment — and checks a GET and a cross-shard batch
// against direct serving.
func TestHTTPTransportFanout(t *testing.T) {
	rec := shardTestRec(t)
	direct := httptest.NewServer(serve.NewHandler(rec, 5))
	defer direct.Close()

	var urls []string
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(serve.NewHandler(rec, 5))
		defer s.Close()
		urls = append(urls, s.URL)
	}
	tr, err := fleet.NewHTTPTransport(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	router, err := fleet.NewShardRouter(fleet.NewRing(3, 0), tr)
	if err != nil {
		t.Fatal(err)
	}
	ringSrv := httptest.NewServer(router)
	defer ringSrv.Close()

	for _, qs := range []string{"q=o2", "q=nokia+n73&n=2", "q=o2&q=o2+mobile"} {
		wantBody, _, _ := getBody(t, direct.URL+"/suggest?"+qs)
		gotBody, _, code := getBody(t, ringSrv.URL+"/suggest?"+qs)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", qs, code)
		}
		if stripTook(gotBody) != stripTook(wantBody) {
			t.Fatalf("%s:\nring:   %s\ndirect: %s", qs, gotBody, wantBody)
		}
	}

	body := `{"requests":[{"context":["o2"]},{"context":["nokia n73"]},{"context":["o2","o2 mobile"]}]}`
	resp, err := http.Post(ringSrv.URL+"/suggest/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("HTTP fan-out answered %d of 3", len(out.Results))
	}
	if len(out.Results[0].Suggestions) == 0 || out.Results[0].Suggestions[0].Query != "o2 mobile" {
		t.Fatalf("results[0] = %+v", out.Results[0])
	}
	if len(out.Results[1].Suggestions) == 0 || out.Results[1].Suggestions[0].Query != "nokia n73 themes" {
		t.Fatalf("results[1] = %+v", out.Results[1])
	}
}

// TestRingReloadBroadcast: POST /reload on the router must fan out to every
// shard and report per-shard outcomes; the shard handlers' generations all
// move.
func TestRingReloadBroadcast(t *testing.T) {
	rec := shardTestRec(t)
	handlers := make([]*serve.Handler, 3)
	asHTTP := make([]http.Handler, 3)
	for i := range handlers {
		handlers[i] = serve.New(rec, serve.Options{
			DefaultN:   5,
			ReloadFunc: func() (core.Recommender, error) { return shardTestRec(t), nil },
		})
		asHTTP[i] = handlers[i]
	}
	router, err := fleet.NewShardRouter(fleet.NewRing(3, 0), fleet.NewLoopbackTransport(asHTTP...))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(router)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out fleet.ShardReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast reload status %d: %+v", resp.StatusCode, out)
	}
	if len(out.Shards) != 3 {
		t.Fatalf("broadcast covered %d of 3 shards", len(out.Shards))
	}
	for _, res := range out.Shards {
		if res.Status != http.StatusOK {
			t.Fatalf("shard %d reload = %+v", res.Shard, res)
		}
	}
	for i, h := range handlers {
		if got := h.Generation(); got != 2 {
			t.Fatalf("shard %d generation = %d, want 2", i, got)
		}
	}

	// A ring whose shards cannot reload must not answer a blanket 200.
	bare := make([]http.Handler, 2)
	for i := range bare {
		bare[i] = serve.NewHandler(rec, 5)
	}
	router2, err := fleet.NewShardRouter(fleet.NewRing(2, 0), fleet.NewLoopbackTransport(bare...))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(router2)
	defer srv2.Close()
	resp, err = http.Post(srv2.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unreloadable ring broadcast status = %d, want 501", resp.StatusCode)
	}
}

// TestRingBatchLimitMatchesShards: the router must reject oversized batches
// itself (400) rather than advertising a limit its shards would refuse and
// answering 502.
func TestRingBatchLimitMatchesShards(t *testing.T) {
	rec := shardTestRec(t)
	router := newLoopbackRing(t, rec, 3)
	srv := httptest.NewServer(router)
	defer srv.Close()

	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 257; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"context":["o2"]}`)
	}
	sb.WriteString(`]}`)
	resp, err := http.Post(srv.URL+"/suggest/batch", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized ring batch status = %d, want 400", resp.StatusCode)
	}
	// A full-size (256-item) batch must succeed even if skewed to one shard.
	sb.Reset()
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 256; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"context":["o2"]}`)
	}
	sb.WriteString(`]}`)
	resp, err = http.Post(srv.URL+"/suggest/batch", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-size ring batch status = %d, want 200", resp.StatusCode)
	}
}
