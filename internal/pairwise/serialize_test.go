package pairwise

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/markov"
	"repro/internal/query"
	"repro/internal/store"
)

// readBack decodes a WriteTo stream. No production code reads one back; the
// round trips below use it to prove that the stream Table VII measures holds
// the whole model.
func readBack(r io.Reader, magic string) (int, map[query.ID]*markov.Dist, error) {
	sr := store.NewReader(r)
	sr.Magic(magic)
	vocab := sr.Int()
	n := sr.Int()
	m := make(map[query.ID]*markov.Dist, n)
	for i := 0; i < n && sr.Err() == nil; i++ {
		k := query.ID(sr.Uvarint())
		m[k] = markov.ReadDist(sr)
	}
	if err := sr.Err(); err != nil {
		return 0, nil, err
	}
	if err := sr.Close(); err != nil {
		return 0, nil, err
	}
	freeze(m)
	return vocab, m, nil
}

func TestAdjacencySerializeRoundTrip(t *testing.T) {
	m := NewAdjacency(trainingSessions(), 8)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	vocab, follow, err := readBack(&buf, magicAdj)
	if err != nil {
		t.Fatal(err)
	}
	got := &Adjacency{follow: follow, vocab: vocab}
	if got.NumStates() != m.NumStates() {
		t.Fatalf("states = %d, want %d", got.NumStates(), m.NumStates())
	}
	for q := query.ID(0); q < 8; q++ {
		a, b := m.Predict(query.Seq{q}, 5), got.Predict(query.Seq{q}, 5)
		if len(a) != len(b) {
			t.Fatalf("prediction count differs for %d", q)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("prediction differs for %d: %v vs %v", q, a, b)
			}
		}
	}
}

func TestCooccurrenceSerializeRoundTrip(t *testing.T) {
	m := NewCooccurrence(trainingSessions(), 8)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	vocab, with, err := readBack(&buf, magicCo)
	if err != nil {
		t.Fatal(err)
	}
	got := &Cooccurrence{with: with, vocab: vocab}
	if got.NumStates() != m.NumStates() {
		t.Fatalf("states = %d, want %d", got.NumStates(), m.NumStates())
	}
	top := got.Predict(query.Seq{3}, 5)
	want := m.Predict(query.Seq{3}, 5)
	if len(top) != len(want) || top[0] != want[0] {
		t.Fatalf("predictions differ: %v vs %v", top, want)
	}
}

// TestCrossFormatRejected: the two streams carry different magics, so one
// is never mistaken for the other.
func TestCrossFormatRejected(t *testing.T) {
	m := NewAdjacency(trainingSessions(), 8)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readBack(&buf, magicCo); err == nil {
		t.Fatal("adjacency stream accepted as co-occurrence")
	}
}
