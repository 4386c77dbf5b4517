package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/logfmt"
	"repro/internal/loggen"
)

// trainGenerated runs the whole log → model path, encoding included, over
// n sessions generated at seed.
func trainGenerated(t *testing.T, seed int64, n, threshold int) *Engine {
	t.Helper()
	gcfg := loggen.DefaultConfig()
	gcfg.Seed = seed
	gen, err := loggen.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	w := logfmt.NewWriter(&log)
	if _, err := gen.GenerateRecords(n, w.Write); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ReductionThreshold = threshold
	eng, err := TrainFromLog(&log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// answersFor renders eng's top-5 for each one-query context.
func answersFor(eng *Engine, queries []string) string {
	var b bytes.Buffer
	for _, q := range queries {
		fmt.Fprintln(&b, Recommend(eng, []string{q}, 5))
	}
	return b.String()
}

// TestPublishKeepsMappedModel retrains onto a served path, the operator's
// "train, then SIGHUP" workflow. Truncating the file in place, as os.Create
// does, changed a mapped engine's answers (the new file was larger) or
// killed the process with SIGBUS (it was smaller). After Publish the mapped
// engine answers exactly as before, a fresh load reads the new model, and
// no temporary file is left behind.
func TestPublishKeepsMappedModel(t *testing.T) {
	old, next := trainGenerated(t, 2, 6000, 2), trainGenerated(t, 1, 3000, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := Publish(path, old); err != nil {
		t.Fatal(err)
	}
	served, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	if got := served.LoadInfo().Mode; got != wantMmapMode() {
		t.Fatalf("load mode %q, want %q", got, wantMmapMode())
	}
	queries := old.Dict().Strings()
	before := answersFor(served, queries)

	if err := Publish(path, next); err != nil {
		t.Fatal(err)
	}
	if after := answersFor(served, queries); after != before {
		t.Fatal("the mapped engine's answers changed when its path was republished")
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, saveBytes(t, next)) {
		t.Fatal("the published file is not Save's bytes")
	}
	fresh, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	nextQueries := next.Dict().Strings()
	if answersFor(fresh, nextQueries) != answersFor(want, nextQueries) {
		t.Fatal("a fresh load does not answer as the published model")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two publishes, want 1", len(entries))
	}
	if info, err := entries[0].Info(); err != nil || info.Mode().Perm() != 0o644 {
		t.Fatalf("published file mode = %v (%v), want 0644", info.Mode().Perm(), err)
	}
}

// TestPublishFailureLeavesPathAlone: a publish that fails — here its rename,
// onto a directory in the model's place — leaves neither the old path nor a
// temporary behind changed.
func TestPublishFailureLeavesPathAlone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	old := filepath.Join(path, "old")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Publish(path, trainSmall(t)); err == nil {
		t.Fatal("publishing over a non-empty directory succeeded")
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "old" {
		t.Fatalf("path holds %q (%v) after a failed publish, want the old bytes", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed publish, want 1", len(entries))
	}
	if err := Publish(filepath.Join(dir, "missing", "model.bin"), &Engine{}); err == nil {
		t.Fatal("publishing into a missing directory succeeded")
	}
}
