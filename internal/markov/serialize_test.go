package markov

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/query"
	"repro/internal/store"
)

// The decoders below read WriteTo streams back. No production code reads
// one; the round trips use them to prove that the streams Table VII
// measures hold the whole model.

func decodeNGram(r io.Reader) (*NGram, error) {
	sr := store.NewReader(r)
	sr.Magic(magicNGram)
	m := &NGram{states: make(map[string]*Dist)}
	m.vocab = sr.Int()
	m.maxN = sr.Int()
	n := sr.Int()
	for i := 0; i < n && sr.Err() == nil; i++ {
		k := sr.String()
		m.states[k] = ReadDist(sr)
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	m.freeze()
	return m, nil
}

// vmmBody is one decoded VMM stream body.
type vmmBody struct {
	cfg           VMMConfig
	depth         int
	root          *Dist
	nodes         map[string]*Dist
	maxLen        int
	occ, startOcc map[string]uint64
}

func decodeVMMBody(sr *store.Reader) vmmBody {
	sr.Magic(magicVMM)
	var b vmmBody
	b.cfg.Epsilon = sr.Float64()
	b.cfg.D = sr.Int()
	b.cfg.MinSupport = sr.Uvarint()
	b.cfg.Vocab = sr.Int()
	b.depth = sr.Int()
	b.root = ReadDist(sr)
	b.nodes = make(map[string]*Dist)
	n := sr.Int()
	for i := 0; i < n && sr.Err() == nil; i++ {
		k := sr.String()
		b.nodes[k] = ReadDist(sr)
	}
	sr.Magic(magicEsc)
	b.maxLen = sr.Int()
	b.occ, b.startOcc = make(map[string]uint64), make(map[string]uint64)
	n = sr.Int()
	for i := 0; i < n && sr.Err() == nil; i++ {
		k := sr.String()
		b.occ[k] = sr.Uvarint()
		if s := sr.Uvarint(); s > 0 {
			b.startOcc[k] = s
		}
	}
	return b
}

func decodeVMM(r io.Reader) (vmmBody, error) {
	sr := store.NewReader(r)
	b := decodeVMMBody(sr)
	if err := sr.Err(); err != nil {
		return b, err
	}
	return b, sr.Close()
}

func sameCounts(a, b *Dist) bool {
	if a.Total() != b.Total() || a.Support() != b.Support() {
		return false
	}
	for _, q := range a.Queries() {
		if a.Count(q) != b.Count(q) {
			return false
		}
	}
	return true
}

// checkBody holds a decoded body to the model it was written from: its
// configuration, every node with its followers, the root prior and the
// escape table.
func checkBody(t *testing.T, m *VMM, b vmmBody) {
	t.Helper()
	if b.cfg != m.Config() || b.depth != m.Depth() || len(b.nodes) != m.NumNodes() {
		t.Fatalf("decoded %+v, depth %d, %d nodes; model %+v, depth %d, %d nodes",
			b.cfg, b.depth, len(b.nodes), m.Config(), m.Depth(), m.NumNodes())
	}
	for k, d := range nodeSet(m) {
		if got := b.nodes[k]; got == nil || !sameCounts(got, d) {
			t.Fatalf("node %v decoded as %v", query.SeqFromKey(k), got)
		}
	}
	if !sameCounts(b.root, m.Root()) {
		t.Fatal("root prior differs")
	}
	if b.maxLen != m.t.maxLen || len(b.occ) != len(m.t.nodes)-1 {
		t.Fatalf("escape windows: %d up to %d, model %d up to %d", len(b.occ), b.maxLen, len(m.t.nodes)-1, m.t.maxLen)
	}
	keys, _ := m.t.keyOrder()
	for id := 1; id < len(m.t.nodes); id++ {
		k, n := keys[id], m.t.nodes[id]
		if b.occ[k] != n.occ || b.startOcc[k] != n.startOcc {
			t.Fatalf("window %v decoded as %d/%d, want %d/%d", query.SeqFromKey(k), b.occ[k], b.startOcc[k], n.occ, n.startOcc)
		}
	}
}

func TestNGramSerializeRoundTrip(t *testing.T) {
	m := NewNGram(ngramTrainingSessions(), 8)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := decodeNGram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumStates() != m.NumStates() || got.MaxOrder() != m.MaxOrder() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", got.NumStates(), got.MaxOrder(), m.NumStates(), m.MaxOrder())
	}
	for _, ctx := range []query.Seq{{1}, {1, 2}, {2}} {
		a, b := m.Predict(ctx, 5), got.Predict(ctx, 5)
		if len(a) != len(b) {
			t.Fatalf("prediction count differs on %v", ctx)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("prediction %d differs on %v: %v vs %v", i, ctx, a[i], b[i])
			}
		}
	}
}

func TestVMMSerializeRoundTrip(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := decodeVMM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkBody(t, m, b)
}

func TestMVMMSerializeRoundTrip(t *testing.T) {
	m := NewMVMM(mvmmSessions(), []float64{0.0, 0.05}, 10,
		MVMMOptions{TrainSample: 50, NewtonIters: 5})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sr := store.NewReader(&buf)
	sr.Magic(magicMVMM)
	if k := sr.Int(); k != 2 {
		t.Fatalf("components = %d", k)
	}
	bodies := []vmmBody{decodeVMMBody(sr), decodeVMMBody(sr)}
	sigma := []float64{sr.Float64(), sr.Float64()}
	vocab := sr.Int()
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Components() {
		checkBody(t, c, bodies[i])
	}
	for i, s := range m.Sigmas() {
		if sigma[i] != s {
			t.Fatalf("sigma %d differs: %v vs %v", i, sigma[i], s)
		}
	}
	if vocab != 10 {
		t.Fatalf("vocab = %d, want 10", vocab)
	}
}

func TestReadVMMRejectsCorruptStream(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, D: 2, Vocab: 2})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := decodeVMM(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt VMM stream accepted")
	}
}

func TestReadNGramRejectsWrongMagic(t *testing.T) {
	m := NewVMM(paperToySessions(), VMMConfig{Epsilon: 0.1, Vocab: 2})
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeNGram(&buf); err == nil {
		t.Fatal("VMM stream accepted as N-gram")
	}
}

func TestFootprintOrderingMatchesModelSize(t *testing.T) {
	sessions := mvmmSessions()
	full := NewVMM(sessions, VMMConfig{Epsilon: 0, Vocab: 10})
	pruned := NewVMM(sessions, VMMConfig{Epsilon: 0.5, Vocab: 10})
	fFull, err := store.Footprint(full)
	if err != nil {
		t.Fatal(err)
	}
	fPruned, err := store.Footprint(pruned)
	if err != nil {
		t.Fatal(err)
	}
	if fFull < fPruned {
		t.Fatalf("full tree footprint %d < pruned %d", fFull, fPruned)
	}
}

func TestDistSerializeRoundTrip(t *testing.T) {
	d := NewDist()
	d.Add(3, 10)
	d.Add(1, 5)
	var buf bytes.Buffer
	sw := store.NewWriter(&buf)
	WriteDist(sw, d)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr := store.NewReader(&buf)
	got := ReadDist(sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Total() != 15 || got.Count(3) != 10 || got.Count(1) != 5 {
		t.Fatalf("round trip dist = %+v", got)
	}
}
