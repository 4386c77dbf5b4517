package query

import (
	"io"

	"repro/internal/store"
)

const magicDict = "QDIC"

// WriteTo serializes the dictionary in ID order. It implements io.WriterTo.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	strs := d.table()
	sw := store.NewWriter(w)
	sw.Magic(magicDict)
	sw.Int(len(strs))
	for _, s := range strs {
		sw.String(s)
	}
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}

// ReadDict decodes a dictionary written by WriteTo, preserving IDs.
func ReadDict(r io.Reader) (*Dict, error) {
	sr := store.NewReader(r)
	sr.Magic(magicDict)
	n := sr.Int()
	d := NewDict()
	for i := 0; i < n && sr.Err() == nil; i++ {
		d.Intern(sr.String())
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	return d, nil
}
