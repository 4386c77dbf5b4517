package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST")
	w.Uvarint(12345)
	w.Int(7)
	w.Float64(math.Pi)
	w.String("hello world")
	w.Bytes([]byte{1, 2, 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Magic("TEST")
	if v := r.Uvarint(); v != 12345 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Int(); v != 7 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Float64(); v != math.Pi {
		t.Fatalf("Float64 = %v", v)
	}
	if v := r.String(); v != "hello world" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST")
	w.String("payload payload payload")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[6] ^= 0xFF // flip a payload byte

	r := NewReader(bytes.NewReader(data))
	r.Magic("TEST")
	_ = r.String()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestReaderDetectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("AAAA")
	w.Close()
	r := NewReader(&buf)
	r.Magic("BBBB")
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("wrong magic not detected: %v", r.Err())
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("TEST")
	w.String("some content")
	w.Close()
	data := buf.Bytes()[:buf.Len()-6]

	r := NewReader(bytes.NewReader(data))
	r.Magic("TEST")
	_ = r.String()
	err := r.Err()
	if err == nil {
		err = r.Close()
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation not detected: %v", err)
	}
}

func TestWriterRejectsNegativeInt(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	w.Int(-1)
	if w.Err() == nil {
		t.Fatal("negative int accepted")
	}
}

func TestWriterRejectsBadMagic(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	w.Magic("TOOLONG")
	if w.Err() == nil {
		t.Fatal("oversized magic accepted")
	}
}

func TestUvarintRoundTripProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, v := range vals {
			w.Uvarint(v)
		}
		if w.Close() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, v := range vals {
			if r.Uvarint() != v {
				return false
			}
		}
		return r.Close() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64RoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, v := range vals {
			w.Float64(v)
		}
		if w.Close() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, v := range vals {
			got := r.Float64()
			if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				return false
			}
		}
		return r.Close() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintCountsBytes(t *testing.T) {
	wt := writerToFunc(func(w io.Writer) (int64, error) {
		n, err := w.Write(make([]byte, 1234))
		return int64(n), err
	})
	n, err := Footprint(wt)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1234 {
		t.Fatalf("Footprint = %d, want 1234", n)
	}
}

type writerToFunc func(w io.Writer) (int64, error)

func (f writerToFunc) WriteTo(w io.Writer) (int64, error) { return f(w) }

// TestBytesGrowsWithTheStream: a slice longer than the first chunk comes back
// whole with its checksum intact, and a length the stream cannot back is an
// error that allocated about what the stream held, not what the length said.
func TestBytesGrowsWithTheStream(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789abcdef"), 3*bytesChunk/16+1)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes(long)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.Bytes(); !bytes.Equal(got, long) {
		t.Fatalf("read back %d bytes, wrote %d", len(got), len(long))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	forged := binary.AppendUvarint(nil, 1<<30)
	forged = append(forged, long[:1000]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r = NewReader(bytes.NewReader(forged))
	if r.Bytes(); !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", r.Err())
	}
	runtime.ReadMemStats(&after)
	allocs := after.TotalAlloc - before.TotalAlloc
	if allocs > 8*bytesChunk {
		t.Fatalf("a forged 1 GiB length over a 1000-byte stream allocated %d bytes", allocs)
	}
}
