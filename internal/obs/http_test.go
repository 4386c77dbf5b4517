package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTracerServeHTTP: /v1/traces applies its three filters, and refuses a
// malformed integer (400) and a non-GET (405) with the error envelope.
func TestTracerServeHTTP(t *testing.T) {
	tr := NewTracer(16, nil)
	tr.Finish(tr.Start(), false)
	tr.Finish(tr.Start(), true)
	tr.Finish(tr.Start(), true)
	for _, tc := range []struct {
		method, target string
		status, count  int
	}{
		{"GET", "/v1/traces", 200, 3},
		{"GET", "/v1/traces?error=1", 200, 2},
		{"GET", "/v1/traces?error=true&limit=1", 200, 1},
		{"GET", "/v1/traces?error=TRUE", 200, 3},
		{"GET", "/v1/traces?min_us=1000000000", 200, 0},
		{"GET", "/v1/traces?min_us=abc", 400, 0},
		{"GET", "/v1/traces?limit=1.5", 400, 0},
		{"POST", "/v1/traces", 405, 0},
	} {
		rr := httptest.NewRecorder()
		tr.ServeHTTP(rr, httptest.NewRequest(tc.method, tc.target, nil))
		if rr.Code != tc.status {
			t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.target, rr.Code, tc.status, rr.Body)
		}
		if tc.status != http.StatusOK {
			var env struct{ Error struct{ Code string } }
			if json.Unmarshal(rr.Body.Bytes(), &env) != nil || env.Error.Code == "" {
				t.Fatalf("%s %s: no error envelope: %s", tc.method, tc.target, rr.Body)
			}
			continue
		}
		var resp TracesResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || resp.Count != tc.count || len(resp.Traces) != tc.count {
			t.Fatalf("%s %s: %d traces (%v), want %d: %s", tc.method, tc.target, resp.Count, err, tc.count, rr.Body)
		}
	}
}
