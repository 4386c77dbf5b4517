package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/logfmt"
)

// writeLog writes a search log of ten two-query sessions.
func writeLog(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := logfmt.NewWriter(f)
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		for j, q := range []string{"nokia n73", "nokia n73 themes"} {
			rec := logfmt.Record{MachineID: "m1", Query: q, Time: base.Add(time.Duration(i)*time.Hour + time.Duration(j)*time.Minute)}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunEpsilons: -epsilons sets the mixture's components. A list that
// fits the compiled model's 64-bit presence mask trains and publishes; 65
// values are refused with an error naming the limit, and no model file is
// written.
func TestRunEpsilons(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "search.log")
	writeLog(t, logPath)
	for _, tc := range []struct {
		epsilons string
		ok       bool
	}{
		{"0,0.05", true},
		{strings.Repeat("0.01,", 64) + "0.02", false},
	} {
		model := filepath.Join(dir, "model.bin")
		os.Remove(model)
		var stderr bytes.Buffer
		err := run([]string{"-log", logPath, "-model", model, "-threshold", "-1", "-epsilons", tc.epsilons}, &stderr)
		_, statErr := os.Stat(model)
		if tc.ok {
			if err != nil || statErr != nil {
				t.Fatalf("-epsilons %s: %v, model file: %v", tc.epsilons, err, statErr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "64") {
			t.Fatalf("%d epsilons: err = %v, want the 64-component limit named", strings.Count(tc.epsilons, ",")+1, err)
		}
		if !errors.Is(statErr, fs.ErrNotExist) {
			t.Fatalf("a refused training run left a model file: %v", statErr)
		}
	}
}
