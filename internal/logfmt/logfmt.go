// Package logfmt implements the raw search-log record layout of the paper's
// Table III and a streaming tab-separated encoding for it. A record is one
// query event: the machine that issued it, the query string, the submission
// timestamp, and zero or more clicked URLs each with its own click timestamp.
package logfmt

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Click is one clicked URL following a query, with its click timestamp.
type Click struct {
	URL  string
	Time time.Time
}

// Record is one raw search-log row in the format of Table III.
type Record struct {
	MachineID string
	Query     string
	Time      time.Time
	Clicks    []Click
}

// ErrMalformed is wrapped by all parse errors produced by this package.
var ErrMalformed = errors.New("logfmt: malformed record")

// Stream-state errors distinguishing "writer mid-line" from "log corrupt" —
// the distinction a tailer needs to decide between retrying and alarming.
var (
	// ErrTornLine reports that the stream ended mid-line: the final line has
	// no terminating newline, which for a live log usually means the writer's
	// append is still in flight. The error is retryable — the Reader keeps
	// the partial bytes, and a later Read continues accumulating from the
	// underlying reader (an *os.File that has grown returns the new bytes),
	// so a tailer simply polls Read until the line completes.
	ErrTornLine = errors.New("logfmt: torn final line (no trailing newline; partial write in progress?)")
	// ErrOversizedLine reports a line exceeding MaxLineBytes. Unlike a torn
	// tail this cannot heal — no valid record is that large — so the Reader
	// latches the error: the log is corrupt and every subsequent Read
	// returns it.
	ErrOversizedLine = errors.New("logfmt: oversized line (log corrupt)")
)

// MaxLineBytes bounds one record line. Lines beyond it fail with
// ErrOversizedLine instead of being buffered without limit.
const MaxLineBytes = 1 << 20

// timeLayout is the on-disk timestamp encoding: RFC3339 keeps records
// human-inspectable while remaining unambiguous across days, unlike the
// paper's clock-only "00:08:41" rendering.
const timeLayout = time.RFC3339

// AppendRecord appends r to dst as a single TSV line (without trailing
// newline) and returns the extended slice:
//
//	machineID \t query \t timestamp \t nClicks [\t clickTime \t clickURL]...
//
// On error it returns dst unextended.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	if r.MachineID == "" {
		return dst, fmt.Errorf("%w: empty machine ID", ErrMalformed)
	}
	if strings.ContainsAny(r.MachineID, "\t\n") || strings.ContainsAny(r.Query, "\t\n") {
		return dst, fmt.Errorf("%w: field contains tab or newline", ErrMalformed)
	}
	b := append(dst, r.MachineID...)
	b = append(b, '\t')
	b = append(b, r.Query...)
	b = append(b, '\t')
	b = r.Time.AppendFormat(b, timeLayout)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(len(r.Clicks)), 10)
	for _, c := range r.Clicks {
		if strings.ContainsAny(c.URL, "\t\n") {
			return dst, fmt.Errorf("%w: click URL contains tab or newline", ErrMalformed)
		}
		b = append(b, '\t')
		b = c.Time.AppendFormat(b, timeLayout)
		b = append(b, '\t')
		b = append(b, c.URL...)
	}
	return b, nil
}

// Unmarshal parses one TSV line produced by AppendRecord.
func Unmarshal(line string) (Record, error) {
	nf := strings.Count(line, "\t") + 1
	if nf < 4 {
		return Record{}, fmt.Errorf("%w: %d fields, need at least 4", ErrMalformed, nf)
	}
	machine, rest, _ := strings.Cut(line, "\t")
	q, rest, _ := strings.Cut(rest, "\t")
	tsField, rest, _ := strings.Cut(rest, "\t")
	countField, rest, _ := strings.Cut(rest, "\t")
	ts, err := time.Parse(timeLayout, tsField)
	if err != nil {
		return Record{}, fmt.Errorf("%w: bad timestamp %q: %v", ErrMalformed, tsField, err)
	}
	n, err := strconv.Atoi(countField)
	if err != nil || n < 0 {
		return Record{}, fmt.Errorf("%w: bad click count %q", ErrMalformed, countField)
	}
	if nf != 4+2*n {
		return Record{}, fmt.Errorf("%w: click count %d but %d trailing fields", ErrMalformed, n, nf-4)
	}
	r := Record{MachineID: machine, Query: q, Time: ts}
	if n > 0 {
		r.Clicks = make([]Click, n)
		for i := range r.Clicks {
			var ctField, url string
			ctField, rest, _ = strings.Cut(rest, "\t")
			url, rest, _ = strings.Cut(rest, "\t")
			ct, err := time.Parse(timeLayout, ctField)
			if err != nil {
				return Record{}, fmt.Errorf("%w: bad click timestamp %q: %v", ErrMalformed, ctField, err)
			}
			r.Clicks[i] = Click{Time: ct, URL: url}
		}
	}
	return r, nil
}

// Writer streams records to an underlying io.Writer, one TSV line each.
type Writer struct {
	bw  *bufio.Writer
	n   int
	err error
}

// NewWriter returns a buffered record writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record. After the first error all subsequent writes fail
// with the same error. The line is encoded straight into the buffer's free
// space, so a record that fits costs no allocation.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	line, err := AppendRecord(w.bw.AvailableBuffer(), r)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(append(line, '\n')); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count reports the number of records successfully written.
func (w *Writer) Count() int { return w.n }

// Flush drains the internal buffer to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Reader streams records from an underlying io.Reader. It is tail-capable:
// a final line without a newline fails with the retryable ErrTornLine while
// the partial bytes are retained, so re-calling Read after the underlying
// stream grows (e.g. an *os.File being appended to) resumes mid-line.
// Offset reports how many bytes of complete lines have been consumed — the
// resume point a crash-recovering tailer seeks back to.
type Reader struct {
	br      *bufio.Reader
	line    int
	off     int64  // bytes consumed through the end of the last complete line
	pending []byte // partial final line retained across ErrTornLine retries
	fatal   error  // latched unrecoverable stream error (oversized line)
}

// NewReader returns a record reader over r. Lines up to MaxLineBytes are
// accepted; longer lines fail with ErrOversizedLine.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the number of bytes consumed through the end of the last
// complete line (returned record, skipped blank, or malformed line). Bytes of
// a pending torn final line are excluded: a reader reopened at Offset resumes
// exactly at the first unconsumed line.
func (r *Reader) Offset() int64 { return r.off }

// Read returns the next record, or io.EOF when the stream is exhausted.
// Blank lines are skipped. A stream ending mid-line returns ErrTornLine
// (retryable: call Read again once the underlying stream has grown); a line
// longer than MaxLineBytes returns ErrOversizedLine and poisons the reader.
func (r *Reader) Read() (Record, error) {
	if r.fatal != nil {
		return Record{}, r.fatal
	}
	for {
		frag, err := r.br.ReadSlice('\n')
		r.pending = append(r.pending, frag...)
		if len(r.pending) > MaxLineBytes {
			r.fatal = fmt.Errorf("line %d: %w (%d+ bytes)", r.line+1, ErrOversizedLine, len(r.pending))
			return Record{}, r.fatal
		}
		if err == bufio.ErrBufferFull {
			continue // long line split across buffer fills
		}
		if err != nil {
			if err == io.EOF {
				if len(r.pending) == 0 {
					return Record{}, io.EOF
				}
				return Record{}, fmt.Errorf("line %d: %w", r.line+1, ErrTornLine)
			}
			return Record{}, err
		}
		r.line++
		r.off += int64(len(r.pending))
		line := string(bytes.TrimRight(r.pending, "\r\n"))
		r.pending = r.pending[:0]
		if line == "" {
			continue
		}
		rec, err := Unmarshal(line)
		if err != nil {
			return Record{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return rec, nil
	}
}

// ReadAll drains the stream into a slice. Intended for tests and small logs;
// production paths should use Read in a loop.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
