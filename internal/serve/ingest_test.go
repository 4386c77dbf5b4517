package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestIngestEndpoint: /v1/ingest serves the wired-in status snapshot as JSON
// and the same value rides along in /v1/metrics under "ingest"; processes
// without an ingestion loop answer 404.
func TestIngestEndpoint(t *testing.T) {
	type status struct {
		Sessions uint64 `json:"sessions"`
		Offset   int64  `json:"offset"`
	}
	h := New(testRecommender(t), Options{
		IngestStatus: func() any { return status{Sessions: 42, Offset: 1024} },
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	var got status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.Sessions != 42 || got.Offset != 1024 {
		t.Fatalf("GET /v1/ingest = %d %+v", resp.StatusCode, got)
	}

	resp, err = http.Post(srv.URL+"/v1/ingest", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/ingest = %d, want 405", resp.StatusCode)
	}

	var m struct {
		Ingest *status `json:"ingest"`
	}
	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Ingest == nil || m.Ingest.Sessions != 42 {
		t.Fatalf("metrics ingest block = %+v", m.Ingest)
	}
}

// TestIngestEndpointAbsent: no IngestStatus hook → 404 with the JSON error
// envelope, and no "ingest" key in metrics.
func TestIngestEndpointAbsent(t *testing.T) {
	srv := httptest.NewServer(New(testRecommender(t), Options{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || eb.Error.Code != "not_found" {
		t.Fatalf("no-loop /v1/ingest = %d %+v", resp.StatusCode, eb)
	}

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, present := raw["ingest"]; present {
		t.Fatal("metrics carries ingest block without an ingestion loop")
	}
}
