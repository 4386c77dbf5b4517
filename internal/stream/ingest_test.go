package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loggen"
	"repro/internal/obs"
)

// TestIngestDrainAllocs gates the ingestion loop's per-record allocation
// budget: one drain of a 743-record log — tail read, session segmentation,
// write-ahead segment logging and count updates, recompiles off — from a
// fresh write-log. It allocates 3,563 times (segmenter growth, write-log
// frames, count-map inserts, one copy of each new query and machine key, so
// that neither keeps its whole log line alive, and the registry and tracer
// the loop builds for itself). One allocation more per record makes that
// 4,306, above the ceiling of 3,900, which leaves the count 337 (9 %) of
// room.
func TestIngestDrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := loggen.DefaultConfig()
	cfg.Universe = loggen.UniverseConfig{
		Topics: 16, RootsPerTopic: 4, ChainDepth: 2,
		SynonymFrac: 0.3, Universals: 6, Generics: 4, Seed: 5,
	}
	cfg.Machines = 50
	cfg.Seed = 5
	g, err := loggen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logPath := writeTraffic(t, g, dir, 300)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "ingest.wal")
	allocs := testing.AllocsPerRun(2, func() {
		ing, err := NewIngester(Config{
			LogPath:           logPath,
			WALPath:           walPath,
			ModelPath:         filepath.Join(dir, "model.bin"),
			Train:             core.Config{ReductionThreshold: 0, SessionGap: 30 * time.Minute},
			segmentRecords:    256,
			RecompileSessions: 1 << 62, // count updates only: never recompile
		})
		if err != nil {
			t.Fatal(err)
		}
		drain(t, ing)
		if st := ing.Status(); st.LogOffset != fi.Size() {
			t.Fatalf("drained %d of the log's %d bytes", st.LogOffset, fi.Size())
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(walPath); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per drain", allocs)
	if allocs > 3900 {
		t.Fatalf("a drain allocates %.0f times, want <= 3900", allocs)
	}
}

// TestIngestStepInstruments holds the loop's instruments to what they claim:
// every productive Step retains one forced trace whose stage spans come in
// order without overlapping, an idle Step retains nothing, a failed write-log
// append retains an error trace and sets Status.LastError, and the two
// histograms count the productive steps and the recompiles. The ingester is
// built without Obs or Tracer, so it reads the registry and tracer the loop
// builds for itself.
func TestIngestStepInstruments(t *testing.T) {
	dir := t.TempDir()
	full, err := os.ReadFile(writeTraffic(t, smallGen(t, 7), dir, 120))
	if err != nil {
		t.Fatal(err)
	}
	// The tailed log starts with the first half of the traffic; the rest is
	// appended for the failed step.
	half := bytes.IndexByte(full[len(full)/2:], '\n') + len(full)/2 + 1
	logPath := filepath.Join(dir, "tail.log")
	if err := os.WriteFile(logPath, full[:half], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := crashCfg(logPath, filepath.Join(dir, "ingest.wal"), filepath.Join(dir, "model.bin"))
	pushes := 0
	cfg.Push = func(string) error { pushes++; return nil }
	ing, err := NewIngester(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	reg, tracer := ing.cfg.Obs, ing.tracer
	// Fill the retention ring with empty, unforced traces first: from then
	// on only a forced or errored trace gets in.
	for i := 0; i < 128; i++ {
		tracer.Finish(tracer.Start(), false)
	}
	stepTraces := func(onlyErrors bool) []obs.TraceView {
		var out []obs.TraceView
		for _, v := range tracer.Snapshot(0, onlyErrors, 0) {
			if len(v.Spans) > 0 {
				out = append(out, v)
			}
		}
		return out
	}

	steps := 0
	for {
		before := ing.Status().Recompiles
		progressed, err := ing.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
		steps++
		want := []string{"read", "wal-append", "fold"}
		if ing.Status().Recompiles > before {
			want = append(want, "recompile", "push")
		}
		views := stepTraces(false)
		if len(views) != steps {
			t.Fatalf("step %d: %d traces retained, want one per productive step", steps, len(views))
		}
		v := views[0]
		if v.Err || len(v.Spans) != len(want) {
			t.Fatalf("step %d trace = %+v, want spans %v", steps, v, want)
		}
		end := int64(0)
		for i, sp := range v.Spans {
			if sp.Name != want[i] || sp.Outcome != "ok" || sp.DurMicros < 0 || sp.StartMicros < end {
				t.Fatalf("step %d span %d = %+v, want %q ok starting at or after %d µs", steps, i, sp, want[i], end)
			}
			end = sp.StartMicros + sp.DurMicros
		}
		if v.TotalMicros < end {
			t.Fatalf("step %d trace total %d µs ends before its last span (%d µs)", steps, v.TotalMicros, end)
		}
	}
	st := ing.Status()
	if steps < 2 || st.Recompiles == 0 || uint64(pushes) != st.Recompiles {
		t.Fatalf("%d productive steps, %+v, %d pushes: too small a run to check the instruments", steps, st, pushes)
	}
	if n := reg.Histogram("ingest_segment_us").Count(); n != uint64(steps) {
		t.Fatalf("ingest_segment_us counted %d steps, want %d", n, steps)
	}
	if n := reg.Histogram("ingest_recompile_us").Count(); n != st.Recompiles {
		t.Fatalf("ingest_recompile_us counted %d recompiles, want %d", n, st.Recompiles)
	}

	// Idle: the tail has nothing new, and no trace is retained.
	if progressed, err := ing.Step(); progressed || err != nil {
		t.Fatalf("idle Step = %v, %v", progressed, err)
	}
	if n := len(stepTraces(false)); n != steps {
		t.Fatalf("idle step retained a trace: %d retained, want %d", n, steps)
	}

	// A write-log append that fails: new records, a closed write-log.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[half:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if progressed, err := ing.Step(); progressed || err == nil {
		t.Fatalf("Step over a closed write-log = %v, %v; want an error", progressed, err)
	}
	if ing.Status().LastError == "" {
		t.Fatal("a failed write-log append left Status.LastError empty")
	}
	errs := stepTraces(true)
	if len(errs) != 1 || len(errs[0].Spans) != 2 ||
		errs[0].Spans[0].Outcome != "ok" || errs[0].Spans[1].Name != "wal-append" || errs[0].Spans[1].Outcome != "error" {
		t.Fatalf("error traces = %+v, want one: read ok, wal-append error", errs)
	}
	if n := reg.Histogram("ingest_segment_us").Count(); n != uint64(steps) {
		t.Fatalf("ingest_segment_us counted %d steps after a failed one, want %d", n, steps)
	}
}

// TestIngestAppendFailureLosesNoSession: a segment whose write-log append
// fails has already taken its completed sessions out of the segmenter, and
// the reader is past their records; the next entry must carry them. One
// append fails (the write-log's file is swapped for a read-only handle for one
// step), and the loop goes on as Run does after a transient error. The counts
// must equal an uninterrupted run's, byte for byte, after the retry and after
// a restart that replays the write-log — and after a restart straight from
// the failure, which re-reads the unlogged records from the source log.
func TestIngestAppendFailureLosesNoSession(t *testing.T) {
	dir := t.TempDir()
	logPath := writeTraffic(t, smallGen(t, 7), dir, 120)
	open := func(name string) *Ingester {
		t.Helper()
		ing, err := NewIngester(crashCfg(logPath, filepath.Join(dir, name+".wal"), filepath.Join(dir, name+".bin")))
		if err != nil {
			t.Fatal(err)
		}
		return ing
	}
	ref := open("ref")
	drain(t, ref)
	want, wantCounts := ref.Status().Sessions, dumpCounts(t, ref.Incremental())
	ref.Close()

	// failOnce runs Steps until one has completed sessions to log, and fails
	// that step's append.
	failOnce := func(ing *Ingester) {
		t.Helper()
		for {
			healthy := ing.wal.f
			ro, err := os.Open(ing.wal.Path())
			if err != nil {
				t.Fatal(err)
			}
			ing.wal.f = ro // writes fail
			progressed, err := ing.Step()
			ing.wal.f = healthy
			ro.Close()
			if progressed || err == nil {
				t.Fatalf("Step over a read-only write-log = %v, %v; want an error", progressed, err)
			}
			if len(ing.unlogged) > 0 {
				return
			}
			// Nothing completed in that segment: let it go through, and try the next.
			if _, err := ing.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, ing *Ingester) {
		t.Helper()
		if got := ing.Status().Sessions; got != want {
			t.Fatalf("%s: %d sessions, want the uninterrupted %d", what, got, want)
		}
		if got := dumpCounts(t, ing.Incremental()); !bytes.Equal(got, wantCounts) {
			t.Fatalf("%s: counts differ from the uninterrupted run's", what)
		}
	}

	ing := open("retry")
	failOnce(ing)
	drain(t, ing)
	check("after the retry", ing)
	ing.Close()
	ing = open("retry")
	check("after a restart", ing)
	ing.Close()

	ing = open("crash")
	failOnce(ing)
	ing.Close()
	ing = open("crash")
	drain(t, ing)
	check("after a restart from the failure", ing)
	ing.Close()
}
