package markov

import (
	"io"
	"sort"

	"repro/internal/query"
	"repro/internal/store"
)

// Serialization magics.
const (
	magicNGram = "NGRM"
	magicVMM   = "VMMT"
	magicMVMM  = "MVMX"
	magicDist  = "DIST"
	magicEsc   = "ESCT"
)

// WriteDist encodes a distribution; exported for the pairwise package.
func WriteDist(w *store.Writer, d *Dist) {
	w.Magic(magicDist)
	w.Int(d.Support())
	for _, q := range d.Queries() {
		w.Uvarint(uint64(q))
		w.Uvarint(d.counts[q])
	}
}

// ReadDist decodes a distribution written by WriteDist.
func ReadDist(r *store.Reader) *Dist {
	r.Magic(magicDist)
	n := r.Int()
	d := NewDist()
	for i := 0; i < n; i++ {
		q := query.ID(r.Uvarint())
		c := r.Uvarint()
		if r.Err() != nil {
			return d
		}
		d.Add(q, c)
	}
	return d
}

func sortedKeys(m map[string]*Dist) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteTo serializes the N-gram model. It implements io.WriterTo.
func (m *NGram) WriteTo(w io.Writer) (int64, error) {
	sw := store.NewWriter(w)
	sw.Magic(magicNGram)
	sw.Int(m.vocab)
	sw.Int(m.maxN)
	sw.Int(len(m.states))
	for _, k := range sortedKeys(m.states) {
		sw.String(k)
		WriteDist(sw, m.states[k])
	}
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}

func writeEscape(sw *store.Writer, t *EscapeTable) {
	sw.Magic(magicEsc)
	sw.Int(t.maxLen)
	keys := make([]string, 0, len(t.occ))
	for k := range t.occ {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sw.Int(len(keys))
	for _, k := range keys {
		sw.String(k)
		sw.Uvarint(t.occ[k])
		sw.Uvarint(t.startOcc[k])
	}
}

func (m *VMM) writeBody(sw *store.Writer) {
	sw.Magic(magicVMM)
	sw.Float64(m.cfg.Epsilon)
	sw.Int(m.cfg.D)
	sw.Uvarint(m.cfg.MinSupport)
	sw.Int(m.cfg.Vocab)
	sw.Int(m.depth)
	WriteDist(sw, m.t.root)
	sw.Int(m.nodes)
	ids := make([]int32, 0, m.nodes)
	for id := range m.t.keys {
		if m.holds(int32(id)) {
			ids = append(ids, int32(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return m.t.keys[ids[i]] < m.t.keys[ids[j]] })
	for _, id := range ids {
		sw.String(m.t.keys[id])
		WriteDist(sw, m.t.dists[id])
	}
	writeEscape(sw, m.t.esc)
}

// WriteTo serializes the VMM (tree, root prior and escape table).
func (m *VMM) WriteTo(w io.Writer) (int64, error) {
	sw := store.NewWriter(w)
	m.writeBody(sw)
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}

// WriteTo serializes the mixture: every component plus the learned sigmas.
func (m *MVMM) WriteTo(w io.Writer) (int64, error) {
	sw := store.NewWriter(w)
	sw.Magic(magicMVMM)
	sw.Int(len(m.comps))
	for _, c := range m.comps {
		c.writeBody(sw)
	}
	for _, s := range m.sigma {
		sw.Float64(s)
	}
	sw.Int(m.vocab)
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}
