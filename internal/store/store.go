// Package store provides the low-level binary encoding used to persist
// trained models (cmd/train writes them, cmd/recommend loads them) and the
// serialized-size accounting behind Table VII's interpreted-model rows (the
// compiled-model rows are measured directly as CPS3/CPS5 blob bytes in
// internal/experiments). The format is a simple length-prefixed varint
// encoding with a magic header and CRC32 trailer per section — stdlib only,
// no gob, so the on-disk size is an honest proxy for the in-memory model
// size.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrCorrupt is wrapped by all decoding failures.
var ErrCorrupt = errors.New("store: corrupt stream")

// Writer encodes primitives to an underlying stream with a running CRC.
type Writer struct {
	bw  *bufio.Writer
	crc uint32
	n   int64
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// BytesWritten reports the total bytes emitted so far (including headers).
func (w *Writer) BytesWritten() int64 { return w.n }

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	nn, err := w.bw.Write(p)
	w.n += int64(nn)
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:nn])
	w.err = err
}

// Magic writes a fixed 4-byte section tag (not checksummed restart; the CRC
// keeps running).
func (w *Writer) Magic(tag string) {
	if len(tag) != 4 {
		w.err = fmt.Errorf("store: magic %q must be 4 bytes", tag)
		return
	}
	w.write([]byte(tag))
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.write(buf[:n])
}

// Int writes a non-negative int as a uvarint.
func (w *Writer) Int(v int) {
	if v < 0 {
		w.err = fmt.Errorf("store: negative int %d", v)
		return
	}
	w.Uvarint(uint64(v))
}

// Float64 writes an IEEE-754 double, little-endian.
func (w *Writer) Float64(v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	w.write(buf[:])
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Close flushes the buffer and appends the CRC32 trailer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], w.crc)
	if _, err := w.bw.Write(buf[:]); err != nil {
		return err
	}
	w.n += 4
	return w.bw.Flush()
}

// Reader decodes primitives written by Writer, verifying the CRC on Close.
type Reader struct {
	br  *bufio.Reader
	crc uint32
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.br, p); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p)
}

// Magic consumes and verifies a 4-byte section tag.
func (r *Reader) Magic(tag string) {
	var buf [4]byte
	r.read(buf[:])
	if r.err == nil && string(buf[:]) != tag {
		r.err = fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, buf[:], tag)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(crcByteReader{r})
	if err != nil {
		r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return 0
	}
	return v
}

type crcByteReader struct{ r *Reader }

func (c crcByteReader) ReadByte() (byte, error) {
	b, err := c.r.br.ReadByte()
	if err == nil {
		c.r.crc = crc32.Update(c.r.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

// Int reads a non-negative int with an overflow guard.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.err = fmt.Errorf("%w: int overflow %d", ErrCorrupt, v)
		return 0
	}
	return int(v)
}

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 {
	var buf [8]byte
	r.read(buf[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// Bytes reads a length-prefixed byte slice with a sanity cap.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > 1<<30 {
		r.err = fmt.Errorf("%w: blob of %d bytes", ErrCorrupt, n)
		return nil
	}
	// The length is the stream's word: past bytesChunk the slice grows as the
	// bytes arrive, so a forged one costs no more memory than the stream holds.
	p := make([]byte, min(n, bytesChunk))
	r.read(p)
	for uint64(len(p)) < n && r.err == nil {
		more := min(n-uint64(len(p)), uint64(len(p)))
		p = append(p, make([]byte, more)...)
		r.read(p[uint64(len(p))-more:])
	}
	return p
}

// bytesChunk is what Bytes allocates before it has seen any of the bytes.
const bytesChunk = 1 << 16

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Close verifies the CRC32 trailer.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc // trailer itself is not part of the checksum
	var buf [4]byte
	if _, err := io.ReadFull(r.br, buf[:]); err != nil {
		return fmt.Errorf("%w: missing CRC trailer: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != want {
		return fmt.Errorf("%w: CRC mismatch %08x != %08x", ErrCorrupt, got, want)
	}
	return nil
}

// Footprint measures the serialized size of a model in bytes — the
// repository's Table VII memory proxy (the encoding is packed, so this
// slightly understates live-heap size but preserves relative ordering).
func Footprint(wt io.WriterTo) (int64, error) {
	var cw countingWriter
	if _, err := wt.WriteTo(&cw); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
