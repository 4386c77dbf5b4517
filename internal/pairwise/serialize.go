package pairwise

import (
	"io"
	"sort"

	"repro/internal/markov"
	"repro/internal/query"
	"repro/internal/store"
)

const (
	magicAdj = "ADJQ"
	magicCo  = "COOC"
)

func writePairwise(w io.Writer, magic string, vocab int, m map[query.ID]*markov.Dist) (int64, error) {
	sw := store.NewWriter(w)
	sw.Magic(magic)
	sw.Int(vocab)
	keys := make([]query.ID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sw.Int(len(keys))
	for _, k := range keys {
		sw.Uvarint(uint64(k))
		markov.WriteDist(sw, m[k])
	}
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}

// WriteTo serializes the Adjacency model. Nothing reads the stream back:
// it is the model's footprint in Table VII (internal/experiments).
func (m *Adjacency) WriteTo(w io.Writer) (int64, error) {
	return writePairwise(w, magicAdj, m.vocab, m.follow)
}

// WriteTo serializes the Co-occurrence model, for Table VII's footprint.
func (m *Cooccurrence) WriteTo(w io.Writer) (int64, error) {
	return writePairwise(w, magicCo, m.vocab, m.with)
}
