package loggen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/logfmt"
)

// generatedLogSHA256 is the sha256 of the log GenerateRecords writes for
// DefaultConfig at seed 7 and 20,000 sessions. Every figure, model file and
// benchmark answer downstream is a function of these bytes, so a generator
// change that moves one of them is a bug, not a refactor.
const generatedLogSHA256 = "5bab37f1ce80d8437b6ded30317d0ccbc2077471ee98359ddef740b49fc776ae"

func TestGeneratedLogPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := logfmt.NewWriter(&buf)
	if _, err := g.GenerateRecords(20000, w.Write); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != generatedLogSHA256 {
		t.Fatalf("generated log sha256 = %s (%d bytes, %d records), pinned %s", got, buf.Len(), w.Count(), generatedLogSHA256)
	}
}
