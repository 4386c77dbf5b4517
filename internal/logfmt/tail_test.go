package logfmt

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReaderTornFinalLine covers the mid-line crash tail: a log whose last
// line was cut off by a crash (or is still being appended) must surface the
// retryable ErrTornLine, not silently report EOF, and the reader must resume
// mid-line once the missing bytes arrive.
func TestReaderTornFinalLine(t *testing.T) {
	line, err := marshal(sample())
	if err != nil {
		t.Fatal(err)
	}
	full := line + "\n" + line + "\n"
	cut := len(full) - 7 // slice mid-way through the second record

	dir := t.TempDir()
	path := filepath.Join(dir, "torn.log")
	if err := os.WriteFile(path, []byte(full[:cut]), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rd := NewReader(f)
	if _, err := rd.Read(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	wantOff := int64(len(line) + 1)
	if rd.Offset() != wantOff {
		t.Fatalf("Offset = %d, want %d", rd.Offset(), wantOff)
	}
	// The torn tail must be distinguishable from clean EOF and must not
	// advance Offset (those bytes are not durably consumed yet).
	for i := 0; i < 3; i++ {
		if _, err := rd.Read(); !errors.Is(err, ErrTornLine) {
			t.Fatalf("read %d on torn tail: err = %v, want ErrTornLine", i, err)
		}
	}
	if rd.Offset() != wantOff {
		t.Fatalf("Offset moved to %d on torn tail, want %d", rd.Offset(), wantOff)
	}

	// Writer finishes its append: the same reader must pick up mid-line.
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.WriteString(full[cut:]); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := rd.Read()
	if err != nil {
		t.Fatalf("read after append: %v", err)
	}
	if rec.MachineID != sample().MachineID {
		t.Fatalf("resumed record mismatch: %+v", rec)
	}
	if rd.Offset() != int64(len(full)) {
		t.Fatalf("final Offset = %d, want %d", rd.Offset(), len(full))
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("after full drain: err = %v, want io.EOF", err)
	}
}

// TestReaderOffsetResume proves the crash-recovery contract: reopening the
// stream at Offset() yields exactly the records not yet returned.
func TestReaderOffsetResume(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	for i := 0; i < 10; i++ {
		r := sample()
		r.Query = "q" + strings.Repeat("x", i)
		r.Time = t0.Add(time.Duration(i) * time.Minute)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := sb.String()

	rd := NewReader(strings.NewReader(data))
	for i := 0; i < 4; i++ {
		if _, err := rd.Read(); err != nil {
			t.Fatal(err)
		}
	}
	resumed := NewReader(strings.NewReader(data[rd.Offset():]))
	recs, err := resumed.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("resumed %d records, want 6", len(recs))
	}
	if want := t0.Add(4 * time.Minute); !recs[0].Time.Equal(want) {
		t.Fatalf("first resumed record time = %v, want %v", recs[0].Time, want)
	}
}

// TestReaderOversizedLine: a line beyond MaxLineBytes is unrecoverable
// corruption — the error latches so a tailer cannot spin on it.
func TestReaderOversizedLine(t *testing.T) {
	huge := strings.Repeat("a", MaxLineBytes+2)
	rd := NewReader(strings.NewReader(huge))
	_, err := rd.Read()
	if !errors.Is(err, ErrOversizedLine) {
		t.Fatalf("err = %v, want ErrOversizedLine", err)
	}
	if _, err2 := rd.Read(); !errors.Is(err2, ErrOversizedLine) {
		t.Fatalf("second read err = %v, want latched ErrOversizedLine", err2)
	}
}

// TestReaderTornLineIsNotEOF guards the error taxonomy the tailer relies on:
// the two stream-state errors must be distinguishable from each other and
// from clean EOF.
func TestReaderTornLineIsNotEOF(t *testing.T) {
	rd := NewReader(strings.NewReader("partial"))
	_, err := rd.Read()
	if !errors.Is(err, ErrTornLine) {
		t.Fatalf("err = %v, want ErrTornLine", err)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, ErrOversizedLine) {
		t.Fatalf("ErrTornLine must not alias EOF or ErrOversizedLine: %v", err)
	}
}
