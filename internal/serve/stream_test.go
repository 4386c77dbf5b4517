package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// streamTookRE strips the timing member, the only nondeterministic bytes in
// a batch result item.
var streamTookRE = regexp.MustCompile(`"took_us":\d+`)

func stripStreamTook(b []byte) string {
	return streamTookRE.ReplaceAllString(string(b), `"took_us":X`)
}

// ndjsonLine is one streamed batch response line.
type ndjsonLine struct {
	Index  int             `json:"index"`
	Result json.RawMessage `json:"result"`
	Error  json.RawMessage `json:"error"`
}

// readNDJSON decodes an NDJSON body into per-index lines, failing on
// duplicate or missing indices against want items.
func readNDJSON(t *testing.T, rd io.Reader, want int) []ndjsonLine {
	t.Helper()
	lines := make([]ndjsonLine, want)
	seen := make([]bool, want)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var ln ndjsonLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("line %d: %v: %s", n, err, sc.Bytes())
		}
		if ln.Index < 0 || ln.Index >= want {
			t.Fatalf("line %d: index %d out of range [0,%d)", n, ln.Index, want)
		}
		if seen[ln.Index] {
			t.Fatalf("index %d emitted twice", ln.Index)
		}
		seen[ln.Index] = true
		lines[ln.Index] = ln
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("streamed %d lines, want %d", n, want)
	}
	return lines
}

// TestBatchStreamNDJSONParity: POST /v1/suggest/batch?stream=1 must answer
// one NDJSON line per item whose result object is byte-identical (modulo
// took_us) to the corresponding element of the buffered results array, and
// the Accept: application/x-ndjson header must select the same mode.
func TestBatchStreamNDJSONParity(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()

	body := `{"requests":[{"context":["o2"]},{"context":["o2","o2 mobile"],"n":1},{"context":["never seen"]},{"context":["o2"]}]}`
	resp := postBatch(t, srv.URL, body)
	defer resp.Body.Close()
	var buffered struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&buffered); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Results) != 4 {
		t.Fatalf("buffered results = %d, want 4", len(buffered.Results))
	}

	sresp, err := http.Post(srv.URL+"/v1/suggest/batch?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	for i, ln := range readNDJSON(t, sresp.Body, 4) {
		if ln.Error != nil {
			t.Fatalf("line %d carries an error: %s", i, ln.Error)
		}
		if got, want := stripStreamTook(ln.Result), stripStreamTook(buffered.Results[i]); got != want {
			t.Fatalf("item %d:\nstream:   %s\nbuffered: %s", i, got, want)
		}
	}

	// The Accept header is the no-query-string opt-in for the same mode.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/suggest/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	aresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if ct := aresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Accept-negotiated Content-Type = %q", ct)
	}
	readNDJSON(t, aresp.Body, 4)
}

// TestBatchV1Alias: /v1/suggest/batch without stream=1 behaves exactly like
// the unversioned path — buffered JSON.
func TestBatchV1Alias(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()
	body := `{"requests":[{"context":["o2"]}]}`
	resp, err := http.Post(srv.URL+"/v1/suggest/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || len(out.Results[0].Suggestions) == 0 {
		t.Fatalf("results = %+v", out.Results)
	}
}
