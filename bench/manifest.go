package main

import (
	"bytes"
	"encoding/json"
)

// manifestJSON renders spec.go as BENCHMARK.json, the file at the repository
// root the driver reads. `bench manifest` prints it; TestManifestIsCurrent
// fails when the checked-in file has drifted from the spec.
func manifestJSON() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricEntry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	mf := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricEntry   `json:"end_to_end"`
		PerLayer   []metricEntry   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		mf.Workloads = append(mf.Workloads, workloadEntry{w.name, w.why})
	}
	for i := range endToEnd {
		s := &endToEnd[i]
		mf.EndToEnd = append(mf.EndToEnd, metricEntry{s.name, s.unit, s.better, &s.bound})
	}
	for _, s := range perLayer {
		mf.PerLayer = append(mf.PerLayer, metricEntry{s.name, s.unit, s.better, nil})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(mf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
