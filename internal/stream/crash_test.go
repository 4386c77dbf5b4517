package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/logfmt"
	"repro/internal/loggen"
)

// smallGen returns a deterministic traffic generator over a compact universe —
// enough vocabulary drift and machine interleaving to exercise segmentation,
// small enough to run hundreds of replay trials.
func smallGen(t *testing.T, seed int64) *loggen.Generator {
	t.Helper()
	cfg := loggen.DefaultConfig()
	cfg.Universe = loggen.UniverseConfig{
		Topics: 12, RootsPerTopic: 4, ChainDepth: 2,
		SynonymFrac: 0.3, Universals: 6, Generics: 4, Seed: seed,
	}
	cfg.Machines = 25
	cfg.Seed = seed
	g, err := loggen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// writeTraffic expands n generated sessions into a raw query log file and
// returns its path.
func writeTraffic(t *testing.T, g *loggen.Generator, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "queries.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	wr := logfmt.NewWriter(f)
	if _, err := g.GenerateRecords(n, wr.Write); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// drain steps the ingester until the tail yields no more complete records.
func drain(t *testing.T, ing *Ingester) {
	t.Helper()
	for {
		progressed, err := ing.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			return
		}
	}
}

// dumpCounts renders the canonical count table.
func dumpCounts(t *testing.T, inc *core.Incremental) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := inc.DumpCounts(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func crashCfg(logPath, walPath, modelPath string) Config {
	return Config{
		LogPath:           logPath,
		WALPath:           walPath,
		ModelPath:         modelPath,
		Train:             core.Config{ReductionThreshold: 0, SessionGap: 30 * time.Minute},
		segmentRecords:    16,
		RecompileSessions: 25,
	}
}

// TestCrashReplayEveryCutPoint is the crash table: the ingester is "killed"
// at every stage boundary of the write-ahead protocol — mid segment append
// (torn record), after a segment append but before the counts moved, after a
// model save but before its commit record, mid commit append, and right after
// a commit — by replaying a byte-prefix of the uninterrupted run's write-log.
// Every restart must converge to count tables and trainer dictionaries
// byte-identical to the uninterrupted run's.
//
// The prefix construction is exhaustive where it matters: every record
// boundary of the full write-log is a clean-kill trial, and several cuts
// inside each record are torn-kill trials. Because appends are sequential and
// deterministic, a prefix of the full log IS the write-log state some crash
// could have left behind (O_APPEND writes land in order; a lost suffix is
// exactly a truncation).
func TestCrashReplayEveryCutPoint(t *testing.T) {
	dir := t.TempDir()
	logPath := writeTraffic(t, smallGen(t, 7), dir, 120)

	// Uninterrupted reference run.
	refWAL := filepath.Join(dir, "ref.wal")
	ref, err := NewIngester(crashCfg(logPath, refWAL, filepath.Join(dir, "ref-model.bin")))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, ref)
	wantCounts := dumpCounts(t, ref.Incremental())
	wantModel, err := ref.Incremental().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refStatus := ref.Status()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if refStatus.Sessions < 50 || refStatus.Recompiles == 0 {
		t.Fatalf("reference run too small to be meaningful: %+v", refStatus)
	}

	fullWAL, err := os.ReadFile(refWAL)
	if err != nil {
		t.Fatal(err)
	}

	// Enumerate the full write-log's record boundaries and types.
	type cutPoint struct {
		at   int64
		name string
	}
	var cuts []cutPoint
	typeName := map[byte]string{recHeader: "header", recSegment: "segment", recCommit: "commit"}
	off := 0
	for off < len(fullWAL) {
		typ, _, n, ok := readFrame(fullWAL[off:])
		if !ok {
			t.Fatalf("reference write-log unreadable at byte %d", off)
		}
		if typ != recHeader {
			// Clean kill exactly after this record lands...
			cuts = append(cuts, cutPoint{int64(off + n), fmt.Sprintf("after %s@%d", typeName[typ], off)})
			// ...and torn kills inside it: first byte of the frame (header
			// half-written) and one byte short of complete (payload torn).
			for _, d := range []int{1, n - 1} {
				if d > 0 && d < n {
					cuts = append(cuts, cutPoint{int64(off + d), fmt.Sprintf("torn %s@%d+%d", typeName[typ], off, d)})
				}
			}
		}
		off += n
	}
	if len(cuts) < 15 {
		t.Fatalf("only %d cut points — traffic too small for a meaningful table", len(cuts))
	}

	for i, cut := range cuts {
		// A fresh write-log holding exactly the bytes a crash at this point
		// would have left, then a restart that drains the same source log.
		crashDir := t.TempDir()
		walPath := filepath.Join(crashDir, "crash.wal")
		if err := os.WriteFile(walPath, fullWAL[:cut.at], 0o644); err != nil {
			t.Fatal(err)
		}
		ing, err := NewIngester(crashCfg(logPath, walPath, filepath.Join(crashDir, "model.bin")))
		if err != nil {
			t.Fatalf("cut %d (%s): restart: %v", i, cut.name, err)
		}
		drain(t, ing)
		got := dumpCounts(t, ing.Incremental())
		if !bytes.Equal(got, wantCounts) {
			t.Fatalf("cut %d (%s): count table diverged from uninterrupted run\n got %d bytes\nwant %d bytes",
				i, cut.name, len(got), len(wantCounts))
		}
		// The trainer dictionary must match byte-for-byte too (same hash ⇒
		// same strings in the same ID order), or a post-crash recompile would
		// break the fleet's dict-extends push compatibility. Snapshotting
		// trains a model, so sample every fourth cut plus the final one.
		if i%4 == 0 || i == len(cuts)-1 {
			got, err := ing.Incremental().Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if h1, h2 := got.Dict().Hash(), wantModel.Dict().Hash(); h1 != h2 {
				t.Fatalf("cut %d (%s): trainer dictionary diverged: %016x != %016x", i, cut.name, h1, h2)
			}
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("crash table: %d cut points, %d sessions, %d recompiles in reference run",
		len(cuts), refStatus.Sessions, refStatus.Recompiles)
}

// TestCrashReplayReportsReplayedState: a restart surfaces what recovery did —
// how many tentative segments were re-applied and how many torn bytes were
// discarded — so operators can see recovery happened.
func TestCrashReplayReportsReplayedState(t *testing.T) {
	dir := t.TempDir()
	logPath := writeTraffic(t, smallGen(t, 11), dir, 60)
	walPath := filepath.Join(dir, "ingest.wal")

	ing, err := NewIngester(crashCfg(logPath, walPath, filepath.Join(dir, "model.bin")))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, ing)
	first := ing.Status()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if first.Replayed != 0 || first.Segments == 0 {
		t.Fatalf("fresh run status = %+v", first)
	}

	// Tear the last record and restart.
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	ing2, err := NewIngester(crashCfg(logPath, walPath, filepath.Join(dir, "model.bin")))
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	st := ing2.Status()
	// Cutting 4 bytes tears the final record; truncation discards that whole
	// record (its frame can no longer be read), so TornTailBytes covers it.
	if st.Replayed == 0 || st.TornTailBytes == 0 {
		t.Fatalf("restart status = %+v, want replayed entries and torn bytes", st)
	}
	drain(t, ing2)
	if got, want := ing2.Status().Sessions, first.Sessions; got != want {
		t.Fatalf("sessions after torn restart = %d, want %d", got, want)
	}
}

// TestWALWithExplicitGapReopensUnderDefault: a write-log written by a config
// that named the 30-minute gap explicitly reopens under one that leaves the
// gap zero, and resumes where it stopped: the header records the gap the
// segmenter ran, not how it was asked for.
func TestWALWithExplicitGapReopensUnderDefault(t *testing.T) {
	dir := t.TempDir()
	logPath := writeTraffic(t, smallGen(t, 5), dir, 60)
	cfg := crashCfg(logPath, filepath.Join(dir, "ingest.wal"), filepath.Join(dir, "model.bin"))
	if cfg.Train.SessionGap != 30*time.Minute {
		t.Fatalf("write config's gap = %v, want an explicit 30m", cfg.Train.SessionGap)
	}
	ing, err := NewIngester(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, ing)
	first := ing.Status()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if first.Segments == 0 || first.Sessions == 0 {
		t.Fatalf("first run ingested nothing: %+v", first)
	}

	cfg.Train.SessionGap = 0
	ing2, err := NewIngester(cfg)
	if err != nil {
		t.Fatalf("reopening a 30m write-log with the gap left zero: %v", err)
	}
	defer ing2.Close()
	st := ing2.Status()
	if st.Replayed != first.Segments || st.Sessions != first.Sessions || st.LogOffset != first.LogOffset {
		t.Fatalf("reopened status = %+v, want the first run's %+v replayed", st, first)
	}
}

// TestIngestResumeAcrossGrowingLog: the tailer survives the source log
// growing between drains — the steady-state "writer appends, ingester
// follows" loop — and a restart mid-stream picks up where the write-log says.
func TestIngestResumeAcrossGrowingLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "queries.log")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wr := logfmt.NewWriter(f)
	g := smallGen(t, 3)

	cfg := crashCfg(logPath, filepath.Join(dir, "ingest.wal"), filepath.Join(dir, "model.bin"))
	ing, err := NewIngester(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Idle tail: no records yet.
	if progressed, err := ing.Step(); err != nil || progressed {
		t.Fatalf("Step on empty log = (%v, %v), want (false, nil)", progressed, err)
	}

	if _, err := g.GenerateRecords(40, wr.Write); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	drain(t, ing)
	mid := ing.Status()
	if mid.Sessions == 0 {
		t.Fatal("no sessions ingested from first traffic burst")
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// More traffic lands while the ingester is down; the restart must resume
	// from the recorded offset, not re-read from zero.
	if _, err := g.GenerateRecords(40, wr.Write); err != nil {
		t.Fatal(err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	ing2, err := NewIngester(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if got := ing2.Status().LogOffset; got != mid.LogOffset {
		t.Fatalf("restart resume offset = %d, want %d", got, mid.LogOffset)
	}
	drain(t, ing2)
	end := ing2.Status()
	if end.Sessions <= mid.Sessions || end.LogOffset <= mid.LogOffset {
		t.Fatalf("second burst not ingested: mid %+v, end %+v", mid, end)
	}
}
