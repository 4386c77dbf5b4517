package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/query"
)

// Handler-level tests of the cached wire form: a hit is answered with the
// bytes its entry stores, so a miss, the entry's first hit (which builds
// them) and every later hit must put the same body on the wire — through
// every handler that serves suggestions.

// wireQueries is the test vocabulary; two entries need JSON escaping.
var wireQueries = []string{"o2", "o2 mobile", "o2 mobile phones", `say "hi"`, `back\slash`, "nokia n73", "nokia n73 themes"}

// wireModel trains a model over wireQueries in which every session starts
// with "o2" and continues along next, so two models with different next
// lists share a dictionary and disagree on every answer.
func wireModel(t testing.TB, next ...string) core.Recommender {
	t.Helper()
	d := query.NewDict()
	for _, q := range wireQueries {
		d.Intern(q)
	}
	id := func(q string) query.ID {
		v, ok := d.Lookup(q)
		if !ok {
			t.Fatalf("%q is not in the test vocabulary", q)
		}
		return v
	}
	var sessions []query.Seq
	for i, q := range next {
		for n := 0; n < 4*(len(next)-i); n++ { // earlier continuations are more frequent
			sessions = append(sessions, query.Seq{id("o2"), id(q), id("nokia n73")})
		}
	}
	cfg := core.DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 50
	cfg.Mixture.NewtonIters = 3
	return core.TrainFromSessions(d, sessions, cfg)
}

func wireModelA(t testing.TB) core.Recommender {
	return wireModel(t, "o2 mobile", `say "hi"`, `back\slash`, "o2 mobile phones")
}

func wireModelB(t testing.TB) core.Recommender {
	return wireModel(t, "nokia n73 themes", "o2 mobile phones")
}

// wireFleet serves rec as the one arm of a fleet.
func wireFleet(t *testing.T, rec core.Recommender) *Handler {
	t.Helper()
	reg := fleet.NewRegistry(0)
	if _, err := reg.Add("champion", rec, func() (core.Recommender, error) { return wireModelB(t), nil }); err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.NewRouter(reg, fleet.ArmSpec{Name: "champion", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return New(rec, Options{Fleet: rt})
}

// wireRequest is one request of the wire-form tests.
type wireRequest struct {
	name, method, target, body string
	lookups                    int // contexts of the request that reach the cache
}

const wireBatchBody = `{"requests":[{"context":["o2"]},{"context":["o2","say \"hi\""],"n":2},{"context":["never seen"]},{"context":["nokia n73"]},{"context":[ "o2" , "o2 mobile" ]}]}`

var wireRequests = []wireRequest{
	{"GET", http.MethodGet, "/suggest?q=o2", "", 1},
	{"GET escaped context", http.MethodGet, "/suggest?q=o2&q=" + url.QueryEscape(`say "hi"`) + "&n=3", "", 1},
	{"GET uncovered", http.MethodGet, "/suggest?q=nokia+n73+themes", "", 1},
	{"GET unknown", http.MethodGet, "/suggest?q=never+seen", "", 0},
	{"batch", http.MethodPost, "/suggest/batch", wireBatchBody, 4},
	{"batch NDJSON", http.MethodPost, "/v1/suggest/batch?stream=1", wireBatchBody, 4},
}

// serveMasked runs one request and returns its body with took_us masked.
func serveMasked(t *testing.T, h http.Handler, r wireRequest) string {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", r.name, rr.Code, rr.Body)
	}
	return stripStreamTook(rr.Body.Bytes())
}

// TestWireFormMissFirstHitSecondHit: for GET, buffered batch and NDJSON
// batch, in single-model mode and fleet mode, the miss, the first hit and the
// second hit answer byte-identical bodies (took_us masked); the cache
// counters prove which was which. Single-model and fleet bodies agree.
func TestWireFormMissFirstHitSecondHit(t *testing.T) {
	rec := wireModelA(t)
	for _, r := range wireRequests {
		t.Run(r.name, func(t *testing.T) {
			modes := []struct {
				name string
				h    *Handler
			}{
				{"single", New(rec, Options{})},
				{"fleet", wireFleet(t, rec)},
			}
			var bodies []string
			for _, m := range modes {
				var rounds [3]string
				for i := range rounds {
					rounds[i] = serveMasked(t, m.h, r)
					st := m.h.cache.Stats()
					if want := uint64(r.lookups); st.Misses != want || st.Hits != uint64(i)*want {
						t.Fatalf("%s, round %d: cache saw %d misses / %d hits, want %d / %d",
							m.name, i, st.Misses, st.Hits, want, uint64(i)*want)
					}
				}
				if rounds[1] != rounds[0] || rounds[2] != rounds[0] {
					t.Fatalf("%s: bodies differ\nmiss:       %s\nfirst hit:  %s\nsecond hit: %s", m.name, rounds[0], rounds[1], rounds[2])
				}
				bodies = append(bodies, rounds[0])
			}
			if single, fleetBody := bodies[0], bodies[1]; fleetBody != single {
				t.Fatalf("fleet and single-model bodies differ\nsingle: %s\nfleet:  %s", single, fleetBody)
			}
		})
	}
}

// TestWireFormEqualsFreshEncode: what a warm handler puts on the wire for a
// context is exactly the core encoder's output for the model's answer.
func TestWireFormEqualsFreshEncode(t *testing.T) {
	rec := wireModelA(t)
	h := New(rec, Options{})
	for _, ctx := range [][]string{{"o2"}, {"o2", `say "hi"`}, {"o2", `back\slash`}, {"nokia n73 themes"}, {"never seen"}} {
		target := "/suggest?"
		for _, q := range ctx {
			target += "q=" + url.QueryEscape(q) + "&"
		}
		want := string(appendSuggestResponse(nil, toBytes(ctx), cache.Answer{Recs: core.Recommend(rec, ctx, 5)}, 0))
		for round := 0; round < 3; round++ {
			got := serveMasked(t, h, wireRequest{name: target, method: http.MethodGet, target: target})
			if got != stripStreamTook([]byte(want)) {
				t.Fatalf("%v, round %d:\n got %s\nwant %s", ctx, round, got, want)
			}
		}
	}
}

// TestReloadNeverServesOldGenerationBytes: once Swap, POST /v1/reload or a
// fleet reload by name has returned, no request is answered with bytes built
// for the previous model — not on the new generation's miss, nor on its
// hits — and requests racing the swap see one model's answer or the other's,
// never a mixture.
func TestReloadNeverServesOldGenerationBytes(t *testing.T) {
	reloaders := []struct {
		name   string
		build  func(t *testing.T) *Handler
		reload func(t *testing.T, h *Handler)
	}{
		{"Swap",
			func(t *testing.T) *Handler { return New(wireModelA(t), Options{}) },
			func(t *testing.T, h *Handler) { h.Swap(wireModelB(t)) }},
		{"POST /v1/reload",
			func(t *testing.T) *Handler {
				return New(wireModelA(t), Options{ReloadFunc: func() (core.Recommender, error) { return wireModelB(t), nil }})
			},
			func(t *testing.T, h *Handler) { postReload(t, h, "/v1/reload") }},
		{"fleet reload by name",
			func(t *testing.T) *Handler { return wireFleet(t, wireModelA(t)) },
			func(t *testing.T, h *Handler) { postReload(t, h, "/v1/reload?model=champion") }},
	}
	for _, rl := range reloaders {
		t.Run(rl.name, func(t *testing.T) {
			oldRef, newRef := New(wireModelA(t), Options{}), New(wireModelB(t), Options{})
			for _, r := range wireRequests {
				h := rl.build(t)
				wantOld, wantNew := serveMasked(t, oldRef, r), serveMasked(t, newRef, r)
				if r.lookups > 0 && r.name != "GET uncovered" && wantOld == wantNew {
					t.Fatalf("%s: the two models agree, the test proves nothing: %s", r.name, wantOld)
				}
				for i := 0; i < 3; i++ { // miss, first hit (stores the bytes), second hit
					if got := serveMasked(t, h, r); got != wantOld {
						t.Fatalf("%s before reload, round %d:\n got %s\nwant %s", r.name, i, got, wantOld)
					}
				}

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
							rr := httptest.NewRecorder()
							h.ServeHTTP(rr, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
							if got := stripStreamTook(rr.Body.Bytes()); got != wantOld && got != wantNew {
								t.Errorf("%s during reload: body is neither model's answer: %s", r.name, got)
								return
							}
						}
					}()
				}
				rl.reload(t, h)
				close(stop)
				wg.Wait()

				for i := 0; i < 3; i++ {
					if got := serveMasked(t, h, r); got != wantNew {
						t.Fatalf("%s after reload, round %d:\n got %s\nwant %s", r.name, i, got, wantNew)
					}
				}
			}
		})
	}
}

func postReload(t *testing.T, h http.Handler, target string) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", target, rr.Code, rr.Body)
	}
}

// TestConcurrentFirstHits: goroutines racing the first hit of the same
// entries through the handlers all answer the miss's body. Meaningful under
// -race.
func TestConcurrentFirstHits(t *testing.T) {
	h := New(wireModelA(t), Options{})
	want := make([]string, len(wireRequests))
	for i, r := range wireRequests {
		want[i] = serveMasked(t, h, r) // misses: entries inserted without bytes
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 4; round++ {
				for i, r := range wireRequests {
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
					if got := stripStreamTook(rr.Body.Bytes()); got != want[i] {
						t.Errorf("%s: got %s, want %s", r.name, got, want[i])
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if strings.Contains(want[0], `"suggestions":[]`) {
		t.Fatalf("the covered GET answered nothing: %s", want[0])
	}
}
