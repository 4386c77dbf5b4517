package compiled

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
)

// magic tags the compiled-PST section of a model file.
const magic = "CPS1"

// WriteTo serializes the compiled model. The trie structure is stored as the
// BFS child-count/edge-symbol arrays — exactly the in-memory CSR layout — so
// loading rebuilds the servable form with no map construction, no key
// decoding and no tree traversal: a cold start is a handful of array reads.
// Follower probabilities and floors are not stored; Read recomputes them
// from the raw counts through the same appendFollowers path Compile uses,
// which keeps a reloaded model bit-identical to a freshly compiled one.
func (c *Model) WriteTo(w io.Writer) (int64, error) {
	if c.Quantised() {
		return 0, errors.New("compiled: quantised model has no raw counts; CPS1 requires an exact model (recompile from the mixture)")
	}
	sw := store.NewWriter(w)
	sw.Magic(magic)
	sw.Int(c.k)
	sw.Int(c.vocab)
	sw.Int(c.depth)
	for _, s := range c.sigma {
		sw.Float64(s)
	}
	for _, ml := range c.maxLen {
		sw.Int(ml)
	}
	n := len(c.evidence)
	sw.Int(n)
	for v := 0; v < n; v++ {
		sw.Int(int(c.childStart[v+1] - c.childStart[v]))
	}
	for _, sym := range c.childKey {
		sw.Uvarint(uint64(sym))
	}
	for v := 0; v < n; v++ {
		sw.Uvarint(c.evidence[v])
		sw.Uvarint(c.occ[v])
		sw.Uvarint(c.startOcc[v])
	}
	for v := 0; v < n; v++ {
		lo, hi := c.folStart[v], c.folStart[v+1]
		sw.Int(int(hi - lo))
		for j := lo; j < hi; j++ {
			sw.Uvarint(uint64(c.folIDSorted[j]))
			sw.Uvarint(c.folCount[j])
		}
	}
	if err := sw.Close(); err != nil {
		return sw.BytesWritten(), err
	}
	return sw.BytesWritten(), nil
}

// Read decodes a model written by WriteTo.
func Read(r io.Reader) (*Model, error) {
	sr := store.NewReader(r)
	sr.Magic(magic)
	c := &Model{}
	c.k = sr.Int()
	c.vocab = sr.Int()
	c.depth = sr.Int()
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	if c.k <= 0 || c.k > maxComponents {
		return nil, fmt.Errorf("%w: implausible component count %d", store.ErrCorrupt, c.k)
	}
	if c.vocab <= 0 {
		return nil, fmt.Errorf("%w: implausible vocab %d", store.ErrCorrupt, c.vocab)
	}
	c.sigma = make([]float64, c.k)
	for i := range c.sigma {
		c.sigma[i] = sr.Float64()
	}
	c.maxLen = make([]int, c.k)
	for i := range c.maxLen {
		c.maxLen[i] = sr.Int()
	}
	n := sr.Int()
	if sr.Err() != nil {
		return nil, sr.Err()
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: empty compiled trie", store.ErrCorrupt)
	}
	c.nodes = n
	c.childStart = make([]int32, n+1)
	for v := 0; v < n; v++ {
		c.childStart[v+1] = c.childStart[v] + int32(sr.Int())
	}
	edges := int(c.childStart[n])
	if edges != n-1 {
		return nil, fmt.Errorf("%w: %d edges for %d nodes", store.ErrCorrupt, edges, n)
	}
	c.childKey = make([]uint32, edges)
	for e := range c.childKey {
		c.childKey[e] = uint32(sr.Uvarint())
	}
	c.evidence = make([]uint64, n)
	c.occ = make([]uint64, n)
	c.startOcc = make([]uint64, n)
	for v := 0; v < n; v++ {
		c.evidence[v] = sr.Uvarint()
		c.occ[v] = sr.Uvarint()
		c.startOcc[v] = sr.Uvarint()
	}
	c.floor = make([]float64, n)
	c.folStart = make([]int32, 1, n+1)
	if f := sr.Int(); sr.Err() == nil && f != 0 { // root's follower record is always empty
		return nil, fmt.Errorf("%w: root carries %d followers", store.ErrCorrupt, f)
	}
	var ids []uint32
	var counts []uint64
	for v := 1; v < n && sr.Err() == nil; v++ {
		f := sr.Int()
		if f < 0 || f > c.vocab {
			return nil, fmt.Errorf("%w: node %d claims %d followers", store.ErrCorrupt, v, f)
		}
		ids = ids[:0]
		counts = counts[:0]
		prev := int64(-1)
		for j := 0; j < f; j++ {
			id := sr.Uvarint()
			cnt := sr.Uvarint()
			if sr.Err() != nil {
				return nil, sr.Err()
			}
			if id > 1<<32-1 || int64(id) <= prev || cnt == 0 {
				return nil, fmt.Errorf("%w: node %d follower list malformed", store.ErrCorrupt, v)
			}
			prev = int64(id)
			ids = append(ids, uint32(id))
			counts = append(counts, cnt)
		}
		c.appendFollowers(v, ids, counts)
	}
	c.folStart = append(c.folStart, int32(len(c.folIDSorted)))
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	c.initServing()
	return c, nil
}
