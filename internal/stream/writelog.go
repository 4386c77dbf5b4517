// Package stream closes the training side of the serving loop: it tails a
// growing query log, folds completed sessions into an incremental count
// store (core.Incremental), persists every step in a durable append-only
// write-log first (the Bayou discipline: tentative entries, committed when a
// recompile lands, replayed after a crash), recompiles snapshots in the
// background and pushes them at the fleet as weight-0 shadow challengers.
// The companion fleet.Ramp then walks the challenger's weight up on its
// shadow divergence metrics. See ARCHITECTURE.md §7 for the byte format and
// the tentative/committed state machine.
package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/session"
)

// Write-log record types. A well-formed log is one header record followed by
// any interleaving of segment and commit records.
const (
	recHeader  byte = 1 // WALHeader: identifies the base vocabulary and gap
	recSegment byte = 2 // SegmentEntry: tentative — counts applied, model not yet
	recCommit  byte = 3 // CommitEntry: segments <= Seq are in a saved model
)

// maxWALRecord bounds one record's payload; anything larger is corruption,
// not data (a segment entry is a few KB).
const maxWALRecord = 64 << 20

// ErrWALCorrupt reports an unreadable write-log prefix — the header record
// itself is missing or damaged, so nothing can be replayed. A damaged suffix
// is not an error: it is truncated as a torn tail (crash mid-append).
var ErrWALCorrupt = errors.New("stream: write-log corrupt")

// ErrWALMismatch reports a write-log whose header does not match the
// ingester's configuration — it belongs to a different base model or gap and
// replaying it would corrupt the counts.
var ErrWALMismatch = errors.New("stream: write-log belongs to a different configuration")

// WALHeader is the first record of every write-log: the fingerprint of the
// base vocabulary counts are built over, and the session gap. Replay refuses
// a log written under a different configuration.
type WALHeader struct {
	BaseDictHash uint64 `json:"base_dict_hash"`
	GapNanos     int64  `json:"gap_nanos"`
}

// SegmentEntry is one tentative ingestion step, appended BEFORE its sessions
// are applied to the in-memory counts (write-ahead): replaying entries in
// order reproduces the exact count table and trainer dictionary. Completed
// carries the sessions closed in this step as query strings in completion
// order (string, not ID, so the entry is self-contained); Open checkpoints
// the still-in-flight sessions so a crash between entries loses nothing;
// LogOffset is the source-log byte offset after the records of this step —
// the resume point. Latest is the event-time watermark (the latest record
// timestamp seen so far): expiry decisions depend on it, so it must survive a
// crash exactly rather than be under-approximated from the open sessions.
type SegmentEntry struct {
	Seq       uint64                     `json:"seq"`
	LogOffset int64                      `json:"log_offset"`
	Latest    time.Time                  `json:"latest"`
	Completed [][]string                 `json:"completed,omitempty"`
	Open      []session.OpenSessionState `json:"open,omitempty"`
}

// CommitEntry marks every segment with Seq' <= Seq as committed: a model
// snapshot containing exactly those sessions was durably saved at ModelPath.
// Counts are not re-applied on replay commits — the commit's meaning is "a
// recompile landed", not "more data".
type CommitEntry struct {
	Seq       uint64 `json:"seq"`
	ModelPath string `json:"model_path"`
	Sessions  uint64 `json:"sessions"` // total sessions in the committed snapshot
}

// WALState is what replaying a write-log yields: the entries to re-apply and
// the positions to resume from.
type WALState struct {
	Header       WALHeader
	Segments     []SegmentEntry // in append order; re-apply Completed to the counts
	LastSeq      uint64         // highest segment seq (0 = none)
	CommittedSeq uint64         // highest committed segment seq (0 = none)
	LastCommit   CommitEntry    // zero value when CommittedSeq == 0
	LogOffset    int64          // source-log resume offset (0 = start)
	Latest       time.Time      // event-time watermark at the last segment
	Open         []session.OpenSessionState
	Truncated    int64 // torn-tail bytes discarded on open (0 = clean shutdown)
}

// WAL is the append side of the write-log. Appends are sequential writes to
// an O_APPEND-opened file; commits additionally fsync, so a committed
// recompile survives power loss while tentative segments ride on the OS
// buffer (a lost tentative suffix replays as "re-read the source log from the
// last surviving offset" — the source log is the ground truth).
type WAL struct {
	f    *os.File
	path string
	buf  []byte
}

// frame layout: [1 type][4 payload len LE][4 CRC32(payload) LE][payload].
const frameHead = 9

// OpenWAL opens (or creates) the write-log at path and replays it. A fresh
// file gets the header record written immediately. An existing file must
// carry a matching header (ErrWALMismatch otherwise); a damaged or
// half-written suffix — a crash mid-append — is truncated away and reported
// in WALState.Truncated. The returned WAL is positioned for appending.
func OpenWAL(path string, hdr WALHeader) (*WAL, *WALState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: opening write-log: %w", err)
	}
	w := &WAL{f: f, path: path}
	st, err := w.replay(hdr)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, st, nil
}

// replay scans the whole file, validates the header, collects entries and
// truncates any torn tail. On return the file offset is at the end.
func (w *WAL) replay(want WALHeader) (*WALState, error) {
	data, err := io.ReadAll(w.f)
	if err != nil {
		return nil, fmt.Errorf("stream: reading write-log: %w", err)
	}
	st := &WALState{Header: want}
	if len(data) == 0 {
		// Fresh log: the header record goes first, before anything else.
		if err := w.append(recHeader, want); err != nil {
			return nil, err
		}
		return st, nil
	}

	off := 0
	sawHeader := false
	for off < len(data) {
		typ, payload, n, ok := readFrame(data[off:])
		if !ok {
			break // torn tail: truncate below
		}
		if !sawHeader {
			if typ != recHeader {
				return nil, fmt.Errorf("%w: first record type %d, want header", ErrWALCorrupt, typ)
			}
			var got WALHeader
			if err := json.Unmarshal(payload, &got); err != nil {
				return nil, fmt.Errorf("%w: header: %v", ErrWALCorrupt, err)
			}
			if got != want {
				return nil, fmt.Errorf("%w: header %+v, want %+v", ErrWALMismatch, got, want)
			}
			sawHeader = true
			off += n
			continue
		}
		switch typ {
		case recSegment:
			var e SegmentEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return nil, fmt.Errorf("%w: segment at byte %d: %v", ErrWALCorrupt, off, err)
			}
			st.Segments = append(st.Segments, e)
			st.LastSeq = e.Seq
			st.LogOffset = e.LogOffset
			st.Latest = e.Latest
			st.Open = e.Open
		case recCommit:
			var e CommitEntry
			if err := json.Unmarshal(payload, &e); err != nil {
				return nil, fmt.Errorf("%w: commit at byte %d: %v", ErrWALCorrupt, off, err)
			}
			st.CommittedSeq = e.Seq
			st.LastCommit = e
		default:
			return nil, fmt.Errorf("%w: unknown record type %d at byte %d", ErrWALCorrupt, typ, off)
		}
		off += n
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: no intact header record", ErrWALCorrupt)
	}
	if off < len(data) {
		// Torn tail (crash mid-append): discard the unreadable suffix so the
		// log is a clean prefix of intact records again.
		st.Truncated = int64(len(data) - off)
		if err := w.f.Truncate(int64(off)); err != nil {
			return nil, fmt.Errorf("stream: truncating torn write-log tail: %w", err)
		}
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return nil, fmt.Errorf("stream: seeking write-log end: %w", err)
	}
	return st, nil
}

// readFrame decodes one record at the head of data. ok is false when data
// holds no complete, checksum-intact record (torn tail).
func readFrame(data []byte) (typ byte, payload []byte, n int, ok bool) {
	if len(data) < frameHead {
		return 0, nil, 0, false
	}
	typ = data[0]
	plen := binary.LittleEndian.Uint32(data[1:5])
	crc := binary.LittleEndian.Uint32(data[5:9])
	if plen > maxWALRecord || frameHead+int(plen) > len(data) {
		return 0, nil, 0, false
	}
	payload = data[frameHead : frameHead+int(plen)]
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, 0, false
	}
	return typ, payload, frameHead + int(plen), true
}

// append marshals v and writes one framed record.
func (w *WAL) append(typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("stream: encoding write-log record: %w", err)
	}
	if len(payload) > maxWALRecord {
		return fmt.Errorf("stream: write-log record %d bytes exceeds limit", len(payload))
	}
	w.buf = w.buf[:0]
	w.buf = append(w.buf, typ)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, payload...)
	if n, err := w.f.Write(w.buf); err != nil {
		if n > 0 {
			// Take the partial frame back, so that a later append does not
			// land behind a torn record that replay would stop at.
			if pos, serr := w.f.Seek(-int64(n), io.SeekCurrent); serr == nil {
				w.f.Truncate(pos)
			}
		}
		return fmt.Errorf("stream: appending write-log record: %w", err)
	}
	return nil
}

// AppendSegment appends one tentative segment entry. Call BEFORE applying the
// entry's sessions to the in-memory counts — write-ahead, so a crash between
// the two replays the entry instead of losing it.
func (w *WAL) AppendSegment(e SegmentEntry) error { return w.append(recSegment, e) }

// AppendCommit appends a commit record and fsyncs: the committed snapshot and
// the fact of its existence survive power loss together.
func (w *WAL) AppendCommit(e CommitEntry) error {
	if err := w.append(recCommit, e); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("stream: syncing write-log commit: %w", err)
	}
	return nil
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close releases the underlying file.
func (w *WAL) Close() error { return w.f.Close() }
