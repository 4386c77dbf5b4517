package stream

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loggen"
)

// TestIngestDrainAllocs gates the ingestion loop's per-record allocation
// budget: one drain of a 743-record log — tail read, session segmentation,
// write-ahead segment logging and count updates, recompiles off — from a
// fresh write-log. It allocates 3,537 times (segmenter growth, write-log
// frames, count-map inserts, and one copy of each new query and machine key,
// so that neither keeps its whole log line alive). Two allocations more per
// record make that 5,023, above the ceiling of 4,400; one more per record
// (4,280) would pass under it.
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
			SegmentRecords:    256,
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
	if allocs > 4400 {
		t.Fatalf("a drain allocates %.0f times, want <= 4400", allocs)
	}
}
