package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestAppendEncoderMatchesStdlib is the property behind the hand-rolled
// response envelope: for adversarial contexts, suggestion strings and scores,
// the appended bytes must decode to exactly the value encoding/json would
// have produced for the equivalent SuggestResponse. (The suggestions member
// and the float format are pinned byte-for-byte where their encoder lives,
// internal/core.)
func TestAppendEncoderMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nastyStrings := []string{
		"", "plain", "with space", `quote " inside`, `back\slash`,
		"tab\there", "new\nline", "control\x01char", "unicode héllo 日本語",
		"<script>&amp;</script>", "ends with \\",
	}
	randomScore := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Float64()
		case 1:
			return rng.Float64() * 1e-9 // forces the 'e' format
		case 2:
			return math.Float64frombits(rng.Uint64() & 0x7fefffffffffffff) // finite, any magnitude
		default:
			return 0
		}
	}
	for trial := 0; trial < 300; trial++ {
		ctx := make([]string, rng.Intn(4))
		for i := range ctx {
			ctx[i] = nastyStrings[rng.Intn(len(nastyStrings))]
		}
		recs := make([]core.Suggestion, rng.Intn(4))
		for i := range recs {
			recs[i] = core.Suggestion{Query: nastyStrings[rng.Intn(len(nastyStrings))], Score: randomScore()}
		}
		took := int64(rng.Intn(100000))

		want := SuggestResponse{Context: ctx, Suggestions: make([]Suggestion, len(recs)), TookMicros: took}
		for i, s := range recs {
			want.Suggestions[i] = Suggestion{Query: s.Query, Score: s.Score}
		}

		out := appendSuggestResponse(nil, toBytes(ctx), cache.Answer{Recs: recs}, took)
		var got SuggestResponse
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("trial %d: invalid JSON %q: %v", trial, out, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("trial %d:\n got %+v\nwant %+v\nraw %s", trial, got, want, out)
		}
		stdlib, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var a, b map[string]any
		if err := json.Unmarshal(out, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(stdlib, &b); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: decoded divergence\n got %v\nwant %v", trial, a, b)
		}
	}
}

func toBytes(ss []string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// TestParseSuggestQueryMatchesURLValues: the zero-alloc parser must agree
// with net/url's decoding on q values and n across escapes and edge cases.
func TestParseSuggestQueryMatchesURLValues(t *testing.T) {
	cases := []string{
		"q=o2",
		"q=o2&q=o2+mobile",
		"q=a%20b&q=%68%65%78",
		"q=&q=x",
		"q=100%",        // invalid escape: pair dropped
		"q=ok&q=bad%zz", // invalid escape on one pair only
		"n=3&q=x",
		"q=x&n=",
		"q=x&n=5&n=9",          // first n wins
		"q=%E6%97%A5%E6%9C%AC", // UTF-8
		"other=ignored&q=x",
		"",
		"&&q=x&&",
	}
	for _, raw := range cases {
		vals, _ := url.ParseQuery(raw)
		b := reqScratchPool.Get().(*reqScratch)
		n, badN := b.parseSuggestQuery(raw, 5, 100)
		if badN {
			t.Fatalf("raw %q: unexpected badN", raw)
		}
		wantQ := vals["q"]
		if len(b.raw) != len(wantQ) {
			t.Fatalf("raw %q: parsed %d q values, url.ParseQuery %d", raw, len(b.raw), len(wantQ))
		}
		for i := range wantQ {
			if string(b.raw[i]) != wantQ[i] {
				t.Fatalf("raw %q: q[%d] = %q, want %q", raw, i, b.raw[i], wantQ[i])
			}
		}
		wantN := 5
		if s := vals.Get("n"); s != "" {
			fmt.Sscanf(s, "%d", &wantN)
		}
		if n != wantN {
			t.Fatalf("raw %q: n = %d, want %d", raw, n, wantN)
		}
		putReqScratch(b)
	}
	// Explicitly bad n values must flag badN.
	for _, raw := range []string{"q=x&n=0", "q=x&n=-1", "q=x&n=abc", "q=x&n=1000"} {
		b := reqScratchPool.Get().(*reqScratch)
		if _, badN := b.parseSuggestQuery(raw, 5, 100); !badN {
			t.Fatalf("raw %q: badN not flagged", raw)
		}
		putReqScratch(b)
	}
}

// reusableRecorder is a minimal ResponseWriter that recycles its buffers, so
// handler allocation measurements are not polluted by the test harness.
type reusableRecorder struct {
	code   int
	header http.Header
	body   []byte
}

func newReusableRecorder() *reusableRecorder {
	return &reusableRecorder{header: make(http.Header, 4)}
}

func (r *reusableRecorder) Header() http.Header { return r.header }
func (r *reusableRecorder) WriteHeader(c int) {
	if r.code == 0 {
		r.code = c
	}
}
func (r *reusableRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}
func (r *reusableRecorder) reset() {
	r.code = 0
	r.body = r.body[:0]
}

// TestServeHTTPCachedAllocs pins the tentpole acceptance criterion at test
// time: a cache-hit GET /suggest through the full handler stack performs at
// most 2 allocations.
func TestServeHTTPCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	h := NewHandler(testRecommender(t), 5)
	req := httptest.NewRequest(http.MethodGet, "/suggest?q=o2&q=o2+mobile&n=5", nil)
	rr := newReusableRecorder()
	for i := 0; i < 8; i++ { // warm pools and the result cache
		rr.reset()
		h.ServeHTTP(rr, req)
	}
	allocs := testing.AllocsPerRun(300, func() {
		rr.reset()
		h.ServeHTTP(rr, req)
		if rr.code != http.StatusOK || len(rr.body) == 0 {
			t.Fatalf("status %d body %q", rr.code, rr.body)
		}
	})
	if allocs > 2 {
		t.Fatalf("cached /suggest allocates %.1f times per request, want <= 2", allocs)
	}
}
