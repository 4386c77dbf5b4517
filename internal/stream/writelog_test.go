package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/session"
)

var testHeader = WALHeader{BaseDictHash: 0xdeadbeef, GapNanos: int64(30 * time.Minute)}

func testWAL(t *testing.T) (string, *WAL, *WALState) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ingest.wal")
	w, st, err := OpenWAL(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	return path, w, st
}

func seg(seq uint64, off int64, completed ...[]string) SegmentEntry {
	return SegmentEntry{
		Seq:       seq,
		LogOffset: off,
		Latest:    time.Date(2026, 3, 1, 12, 0, int(seq), 0, time.UTC),
		Completed: completed,
		Open: []session.OpenSessionState{{
			Machine: "m1",
			Last:    time.Date(2026, 3, 1, 12, 0, int(seq), 0, time.UTC),
			Queries: []string{"open q"},
		}},
	}
}

// TestWALRoundTrip: appended segments and commits replay back exactly, with
// the resume positions tracking the latest entries.
func TestWALRoundTrip(t *testing.T) {
	path, w, st := testWAL(t)
	if st.LastSeq != 0 || st.CommittedSeq != 0 || len(st.Segments) != 0 {
		t.Fatalf("fresh WAL state = %+v", st)
	}

	entries := []SegmentEntry{
		seg(1, 100, []string{"free mp3", "free music"}),
		seg(2, 250),
		seg(3, 400, []string{"napster"}, []string{"kazaa", "kazaa lite"}),
	}
	for _, e := range entries[:2] {
		if err := w.AppendSegment(e); err != nil {
			t.Fatal(err)
		}
	}
	commit := CommitEntry{Seq: 2, ModelPath: "model.bin", Sessions: 1}
	if err := w.AppendCommit(commit); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegment(entries[2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, st2, err := OpenWAL(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(st2.Segments, entries) {
		t.Fatalf("replayed segments:\n got %+v\nwant %+v", st2.Segments, entries)
	}
	if st2.LastSeq != 3 || st2.CommittedSeq != 2 || st2.LogOffset != 400 || st2.Truncated != 0 {
		t.Fatalf("replayed state = %+v", st2)
	}
	if st2.LastCommit != commit {
		t.Fatalf("replayed commit = %+v, want %+v", st2.LastCommit, commit)
	}
	if !st2.Latest.Equal(entries[2].Latest) {
		t.Fatalf("replayed watermark = %v, want %v", st2.Latest, entries[2].Latest)
	}
	if len(st2.Open) != 1 || st2.Open[0].Machine != "m1" {
		t.Fatalf("replayed open sessions = %+v", st2.Open)
	}
}

// TestWALTornTailTruncation: cutting the file at EVERY byte position inside
// the last record must replay the intact prefix and truncate the rest — the
// crash-mid-append recovery path, exhaustively.
func TestWALTornTailTruncation(t *testing.T) {
	path, w, _ := testWAL(t)
	if err := w.AppendSegment(seg(1, 100, []string{"free mp3"})); err != nil {
		t.Fatal(err)
	}
	data1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := int64(len(data1)) // header + segment 1
	if err := w.AppendSegment(seg(2, 200, []string{"napster"})); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := intact + 1; cut < int64(len(full)); cut++ {
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, st, err := OpenWAL(torn, testHeader)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(st.Segments) != 1 || st.LastSeq != 1 || st.LogOffset != 100 {
			t.Fatalf("cut at %d: replayed %+v", cut, st)
		}
		if st.Truncated != cut-intact {
			t.Fatalf("cut at %d: truncated %d bytes, want %d", cut, st.Truncated, cut-intact)
		}
		// The torn bytes are physically gone: appending a fresh record and
		// replaying again yields seg 1 + the new record, no corruption.
		if err := w2.AppendSegment(seg(2, 300)); err != nil {
			t.Fatalf("cut at %d: append after truncate: %v", cut, err)
		}
		w2.Close()
		w3, st3, err := OpenWAL(torn, testHeader)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if len(st3.Segments) != 2 || st3.LogOffset != 300 || st3.Truncated != 0 {
			t.Fatalf("cut at %d: post-repair replay %+v", cut, st3)
		}
		w3.Close()
	}
}

// TestWALHeaderMismatch: a log written under a different base dictionary or
// gap is refused, not silently replayed.
func TestWALHeaderMismatch(t *testing.T) {
	path, w, _ := testWAL(t)
	w.Close()

	for _, hdr := range []WALHeader{
		{BaseDictHash: testHeader.BaseDictHash + 1, GapNanos: testHeader.GapNanos},
		{BaseDictHash: testHeader.BaseDictHash, GapNanos: testHeader.GapNanos * 2},
	} {
		if _, _, err := OpenWAL(path, hdr); !errors.Is(err, ErrWALMismatch) {
			t.Fatalf("OpenWAL with header %+v: err = %v, want ErrWALMismatch", hdr, err)
		}
	}
}

// TestWALCorruptHeader: damage inside the first record is unrecoverable — no
// torn-tail truncation can save a log whose header is gone.
func TestWALCorruptHeader(t *testing.T) {
	path, w, _ := testWAL(t)
	if err := w.AppendSegment(seg(1, 100)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHead+2] ^= 0xff // flip a byte inside the header payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path, testHeader); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("corrupt header: err = %v, want ErrWALCorrupt", err)
	}
}

// TestWALCommitIsDurabilityBarrier: a commit record fsyncs, so a torn tail
// can never reach back past the last commit.
func TestWALCommitIsDurabilityBarrier(t *testing.T) {
	path, w, _ := testWAL(t)
	if err := w.AppendSegment(seg(1, 100, []string{"free mp3"})); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCommit(CommitEntry{Seq: 1, ModelPath: "m.bin", Sessions: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegment(seg(2, 200)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut inside the post-commit segment: the commit must survive replay.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w2, st, err := OpenWAL(path, testHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st.CommittedSeq != 1 || st.LastCommit.ModelPath != "m.bin" {
		t.Fatalf("post-commit torn tail lost the commit: %+v", st)
	}
	if st.LastSeq != 1 || st.Truncated == 0 {
		t.Fatalf("torn segment not truncated: %+v", st)
	}
}

// FuzzOpenWAL feeds arbitrary bytes to the write-log decoder as an existing
// log file. Whatever the bytes, OpenWAL must not panic; a refusal must be
// ErrWALCorrupt or ErrWALMismatch; and an accepted log must be left as the
// input minus exactly the torn tail it reports, which a second OpenWAL then
// replays to the same state with nothing left to truncate.
func FuzzOpenWAL(f *testing.F) {
	dir := f.TempDir()
	fresh := filepath.Join(dir, "fresh.wal")
	w, _, err := OpenWAL(fresh, testHeader)
	if err != nil {
		f.Fatal(err)
	}
	w.Close()
	headerOnly, err := os.ReadFile(fresh)
	if err != nil {
		f.Fatal(err)
	}
	full := filepath.Join(dir, "full.wal")
	if w, _, err = OpenWAL(full, testHeader); err != nil {
		f.Fatal(err)
	}
	for _, e := range []SegmentEntry{seg(1, 100, []string{"free mp3", "free music"}), seg(2, 250)} {
		if err := w.AppendSegment(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.AppendCommit(CommitEntry{Seq: 2, ModelPath: "model.bin", Sessions: 1}); err != nil {
		f.Fatal(err)
	}
	if err := w.AppendSegment(seg(3, 400, []string{"napster"})); err != nil {
		f.Fatal(err)
	}
	w.Close()
	valid, err := os.ReadFile(full)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	for _, cut := range []int{1, frameHead, len(headerOnly), len(headerOnly) + frameHead + 3, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	for _, at := range []int{0, 2, 6, frameHead + 2, len(headerOnly), len(headerOnly) + 1, len(headerOnly) + frameHead + 5, len(valid) - 2} {
		flipped := bytes.Clone(valid)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, st, err := OpenWAL(path, testHeader)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) && !errors.Is(err, ErrWALMismatch) {
				t.Fatalf("error wraps neither ErrWALCorrupt nor ErrWALMismatch: %v", err)
			}
			return
		}
		w.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := data[:int64(len(data))-st.Truncated]
		if len(data) == 0 {
			want = headerOnly // a fresh log starts with its header record
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("accepted log left %d bytes on disk, want the %d-byte input minus its %d torn bytes", len(got), len(data), st.Truncated)
		}
		w2, st2, err := OpenWAL(path, testHeader)
		if err != nil {
			t.Fatalf("reopening an accepted log: %v", err)
		}
		w2.Close()
		if st2.Truncated != 0 {
			t.Fatalf("reopen truncated %d more bytes", st2.Truncated)
		}
		st2.Truncated = st.Truncated
		if !reflect.DeepEqual(st2, st) {
			t.Fatalf("reopen replayed a different state:\n got %+v\nwant %+v", st2, st)
		}
	})
}
