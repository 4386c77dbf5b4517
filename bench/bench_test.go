package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// The harness tests run on a small model (a few thousand sessions, laps of a
// few hundred contexts) so the whole file stays under two seconds.

const (
	testSessions = 4000
	testContexts = 256
)

var (
	testModelOnce sync.Once
	testModelPath string
	testModelErr  error
)

// testModel trains the small model once per test binary.
func testModel(t *testing.T) string {
	t.Helper()
	testModelOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bench-test-")
		if err != nil {
			testModelErr = err
			return
		}
		testModelPath = filepath.Join(dir, "model.bin")
		_, testModelErr = prepare(1, testModelPath, testSessions)
	})
	if testModelErr != nil {
		t.Fatal(testModelErr)
	}
	return testModelPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if testModelPath != "" {
		os.RemoveAll(filepath.Dir(testModelPath))
	}
	os.Exit(code)
}

// small returns a copy of the named workload shrunk to test size.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloadByName(name)
	w.contexts = testContexts
	return &w
}

func testEnv(t *testing.T, name string, seed int64) *env {
	t.Helper()
	e, err := newEnv(runConfig{w: small(t, name), seed: seed, workdir: t.TempDir()}, testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	if e.failed != 0 {
		t.Fatalf("%s: %d of %d warm-up responses failed verification", name, e.failed, e.attempted)
	}
	return e
}

func requestBytes(p *pool) []string {
	var out []string
	for i, r := range p.reqs {
		s := r.Method + " " + r.URL.RequestURI()
		if p.bodies != nil {
			s += "\n" + string(p.bodies[i])
		}
		out = append(out, s)
	}
	return out
}

func TestSameSeedSameBytesOtherSeedOtherPool(t *testing.T) {
	for _, name := range []string{"get_zipf", "batch_miss", "ring_get"} {
		a, b, c := testEnv(t, name, 7), testEnv(t, name, 7), testEnv(t, name, 8)
		if !reflect.DeepEqual(requestBytes(a.pool), requestBytes(b.pool)) {
			t.Errorf("%s: same seed built different request bytes", name)
		}
		if a.caller.responseHash() != b.caller.responseHash() {
			t.Errorf("%s: same seed, response hashes %x and %x", name, a.caller.responseHash(), b.caller.responseHash())
		}
		if reflect.DeepEqual(requestBytes(a.pool), requestBytes(c.pool)) {
			t.Errorf("%s: seeds 7 and 8 built the same pool", name)
		}
		if a.caller.hits == 0 || a.caller.covered < a.caller.hits {
			t.Errorf("%s: hits %d, covered %d of %d", name, a.caller.hits, a.caller.covered, len(a.pool.items))
		}
	}
}

// Every chain serves the same answers, so the accuracy stretch scores the
// same through each, in either request kind.
func TestHitAt5SameThroughEveryChain(t *testing.T) {
	var first float64
	for i, name := range []string{"get_zipf", "batch_miss", "ring_get", "ring_batch"} {
		e := testEnv(t, name, 6)
		hit, err := e.hitAt5(8 * batchSize)
		if err != nil {
			t.Fatal(err)
		}
		if e.failed != 0 {
			t.Errorf("%s: %d answers of the accuracy stretch differ from the oracle", name, e.failed)
		}
		if i == 0 {
			first = hit
		}
		if hit <= 0 || hit >= 1 || hit != first {
			t.Errorf("%s: hit_at_5 = %v, get_zipf has %v", name, hit, first)
		}
	}
}

func TestDistinctCycleNeverHits(t *testing.T) {
	w := small(t, "get_miss")
	w.contexts = 4 * testContexts // enough keys that every cache shard overflows
	e, err := newEnv(runConfig{w: w, seed: 3, workdir: t.TempDir()}, testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	before, err := e.cacheStats()
	if err != nil {
		t.Fatal(err)
	}
	e.timeLaps(5)
	after, err := e.cacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Hits != before.Hits || after.Misses-before.Misses != uint64(5*w.contexts) {
		t.Errorf("5 laps of %d distinct contexts: %d hits, %d misses", w.contexts, after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if e.failed != 0 {
		t.Errorf("%d responses failed", e.failed)
	}
}

// Lap periodicity: from the second lap on, every lap finds the cache in the
// state the lap before found it in, so hits per lap repeat exactly — which
// is what makes laps identical work.
func TestLapPeriodicity(t *testing.T) {
	e, err := newEnv(runConfig{w: small(t, "get_zipf"), seed: 5, workdir: t.TempDir()}, testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var hits []uint64
	prev, err := e.cacheStats()
	if err != nil {
		t.Fatal(err)
	}
	for lap := 0; lap < 6; lap++ {
		e.caller.lap()
		st, err := e.cacheStats()
		if err != nil {
			t.Fatal(err)
		}
		hits = append(hits, st.Hits-prev.Hits)
		prev = st
	}
	for _, h := range hits[1:] {
		if h != hits[0] {
			t.Fatalf("hits per lap %v: not periodic", hits)
		}
	}
	lookups := uint64(0)
	for _, it := range e.pool.items {
		if len(it.ids) > 0 {
			lookups++
		}
	}
	if hits[0] == 0 || hits[0] >= lookups {
		t.Errorf("get_zipf should mix hits and misses: %d hits in %d lookups per lap", hits[0], lookups)
	}
}

func TestFastLapIsRankEleven(t *testing.T) {
	ascending := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i + 1)
		}
		return d
	}
	for _, tc := range []struct{ n, want int }{{1000, 11}, {400, 11}, {100, 2}, {399, 5}, {3, 2}} {
		if got := fastOf(ascending(tc.n)); got != time.Duration(tc.want) {
			t.Errorf("fastOf %d laps = rank %d, want rank %d", tc.n, got, tc.want)
		}
	}
	// A handful of freakishly fast readings must not set the figure.
	laps := ascending(1000)
	for i := 0; i < 10; i++ {
		laps[i] = 0
	}
	if got := fastOf(sortedCopy(laps)); got != 11 {
		t.Errorf("ten outliers moved the figure to %d", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestTookMasking(t *testing.T) {
	ref := []byte(`{"results":[{"context":["a \"took_us\": b"],"suggestions":[],"took_us":12},{"context":["c"],"suggestions":[{"query":"d","score":0.5}],"took_us":3}],"took_us":15}`)
	chunks := splitTook(ref)
	if len(chunks) != 4 {
		t.Fatalf("split into %d chunks, want 4: %q", len(chunks), chunks)
	}
	same := []byte(`{"results":[{"context":["a \"took_us\": b"],"suggestions":[],"took_us":0},{"context":["c"],"suggestions":[{"query":"d","score":0.5}],"took_us":12345}],"took_us":7}`)
	if !matchMasked(chunks, ref) || !matchMasked(chunks, same) {
		t.Error("bodies that differ only in took_us must match")
	}
	for name, body := range map[string]string{
		"score":    `{"results":[{"context":["a \"took_us\": b"],"suggestions":[],"took_us":12},{"context":["c"],"suggestions":[{"query":"d","score":0.6}],"took_us":3}],"took_us":15}`,
		"trailing": string(ref) + "x",
		"short":    string(ref[:len(ref)-1]),
		"no took":  `{"results":[{"context":["a \"took_us\": b"],"suggestions":[],"took_us":},{"context":["c"],"suggestions":[{"query":"d","score":0.5}],"took_us":3}],"took_us":15}`,
		"empty":    ``,
	} {
		if matchMasked(chunks, []byte(body)) {
			t.Errorf("%s: a different body matched", name)
		}
	}
}

// Trace spans nest and sum: children lie inside their parents, and the
// budget's stages plus the remainder are the root span.
func TestTraceSpansNestAndSum(t *testing.T) {
	for _, name := range []string{"get_zipf", "batch_miss", "ring_get", "ring_batch"} {
		e := testEnv(t, name, 2)
		rec := newRecorder(len(e.pool.reqs) * spansPerRequest)
		rp, err := newReplayer(e, rec)
		if err != nil {
			t.Fatal(err)
		}
		const laps = 3
		for lap := 0; lap < laps; lap++ {
			e.caller.tracedLap(rec, lap)
			if bad := e.caller.verify(); bad != 0 {
				t.Fatalf("%s: %d traced responses failed", name, bad)
			}
			rp.replayLap(rec, lap)
			rec.endLap()
		}
		if _, bad := rp.check(); bad != 0 {
			t.Errorf("%s: %d replayed responses differ from the reference", name, bad)
		}
		if why := checkNesting(rec.kept); why != "" {
			t.Errorf("%s: %s", name, why)
		}
		if got := rec.count("request"); got != len(e.pool.reqs) {
			t.Errorf("%s: %d root spans per lap for %d requests", name, got, len(e.pool.reqs))
		}
		b := rp.budget(rec)
		if diff := b["sum"] + b["unaccounted"] - b["request"]; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: sum %v + unaccounted %v != request %v", name, b["sum"], b["unaccounted"], b["request"])
		}
		if b["request"] <= 0 || b["sum"] <= 0 {
			t.Errorf("%s: empty budget %v", name, b)
		}
		// Self time never exceeds duration, and is what children leave.
		for n, st := range rec.totals {
			if len(st.dur) != laps {
				t.Errorf("%s: %s recorded on %d of %d laps", name, n, len(st.dur), laps)
			}
			for lap, d := range st.dur {
				if st.self[lap] > d+1e-6 {
					t.Errorf("%s: %s self %v exceeds duration %v", name, n, st.self[lap], d)
				}
			}
		}
		path := filepath.Join(t.TempDir(), "out.json")
		if err := rec.write(path, traceFile{Workload: name, Budget: b}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.Spans) != len(rec.kept) || tf.KeptLaps != keptLaps || tf.TracedLaps != laps {
			t.Errorf("%s: trace file has %d spans of %d laps (%d traced)", name, len(tf.Spans), tf.KeptLaps, tf.TracedLaps)
		}
	}
}

func TestCheckNestingRejectsBrokenTraces(t *testing.T) {
	ok := []span{{Name: "p", ID: 1, Start: 0, End: 10}, {Name: "a", ID: 2, Parent: 1, Start: 1, End: 4}, {Name: "b", ID: 3, Parent: 1, Start: 4, End: 9}}
	if why := checkNesting(ok); why != "" {
		t.Errorf("well-formed trace rejected: %s", why)
	}
	for name, spans := range map[string][]span{
		"child outside parent": {{Name: "p", ID: 1, Start: 0, End: 10}, {Name: "a", ID: 2, Parent: 1, Start: 5, End: 11}},
		"siblings overlap":     {{Name: "p", ID: 1, Start: 0, End: 10}, {Name: "a", ID: 2, Parent: 1, Start: 1, End: 5}, {Name: "b", ID: 3, Parent: 1, Start: 4, End: 9}},
		"unknown parent":       {{Name: "a", ID: 2, Parent: 9, Start: 1, End: 2}},
		"other request":        {{Name: "p", ID: 1, Req: 1, Start: 0, End: 10}, {Name: "a", ID: 2, Req: 2, Parent: 1, Start: 1, End: 2}},
		"duplicate id":         {{Name: "p", ID: 1, Start: 0, End: 10}, {Name: "q", ID: 1, Start: 11, End: 12}},
		"ends before start":    {{Name: "p", ID: 1, Start: 5, End: 4}},
	} {
		if checkNesting(spans) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestManifestIsCurrent(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `bench/run.sh manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[s.name] {
			t.Errorf("metric %s is named twice", s.name)
		}
		seen[s.name] = true
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the driver allows 200", w.name, len(w.why))
		}
		if w.contexts%batchSize != 0 {
			t.Errorf("%s: %d contexts is not a whole number of batches", w.name, w.contexts)
		}
	}
}

// The timed loop may not allocate on the harness's side: against a handler
// that allocates nothing, a lap allocates nothing.
func TestLapLoopDoesNotAllocate(t *testing.T) {
	answer := []byte(`{"context":[],"suggestions":[],"took_us":1}`)
	scratch := make([]byte, 1<<16)
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			for {
				if _, err := r.Body.Read(scratch); err != nil {
					break
				}
			}
		}
		w.Write(answer)
	})
	for _, name := range []string{"get_zipf", "batch_miss"} {
		c := newCaller(stub, testEnv(t, name, 4).pool)
		c.lap()
		c.out.buf = make([]byte, 0, 2*len(c.out.buf))
		if allocs := testing.AllocsPerRun(5, func() { c.lap() }); allocs != 0 {
			t.Errorf("%s: a lap allocates %.0f times in the harness", name, allocs)
		}
	}
}
