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

// keyOrder returns every node's context in the Seq.Key layout, by node ID,
// and the node IDs, the root excepted, in the order of those keys: the
// streams' canonical node order.
func (t *pst) keyOrder() ([]string, []int32) {
	keys := make([]string, len(t.nodes))
	ids := make([]int32, len(t.nodes)-1)
	var ctx query.Seq
	for i := range ids {
		id := int32(i + 1)
		ctx = ctx[:0]
		for v := id; v != 0; v = t.nodes[v].parent {
			ctx = append(ctx, t.nodes[v].sym)
		}
		keys[id], ids[i] = ctx.Key(), id
	}
	sort.Slice(ids, func(i, j int) bool { return keys[ids[i]] < keys[ids[j]] })
	return keys, ids
}

// writeBody writes the view: its configuration, the root prior, its nodes
// with their followers, then every window of the trie with its Eq. (6)
// counts, both in key order (keyOrder).
func (m *VMM) writeBody(sw *store.Writer, keys []string, order []int32) {
	sw.Magic(magicVMM)
	sw.Float64(m.cfg.Epsilon)
	sw.Int(m.cfg.D)
	sw.Uvarint(m.cfg.MinSupport)
	sw.Int(m.cfg.Vocab)
	sw.Int(m.depth)
	WriteDist(sw, m.t.root)
	sw.Int(m.nodes)
	for _, id := range order {
		if m.holds(id) {
			sw.String(keys[id])
			WriteDist(sw, m.t.nodes[id].dist)
		}
	}
	sw.Magic(magicEsc)
	sw.Int(m.t.maxLen)
	sw.Int(len(order))
	for _, id := range order {
		sw.String(keys[id])
		sw.Uvarint(m.t.nodes[id].occ)
		sw.Uvarint(m.t.nodes[id].startOcc)
	}
}

// WriteTo serializes the VMM (tree, root prior and escape windows).
func (m *VMM) WriteTo(w io.Writer) (int64, error) {
	sw := store.NewWriter(w)
	keys, order := m.t.keyOrder()
	m.writeBody(sw, keys, order)
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
	keys, order := m.t.keyOrder()
	for _, c := range m.comps {
		c.writeBody(sw, keys, order)
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
