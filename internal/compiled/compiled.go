// Package compiled turns a trained markov.MVMM mixture into a single flat
// Prediction Suffix Tree optimised for serving.
//
// The paper's deployment note (Table VII) observes that the mixture's K VMM
// components "can actually combine all into a single PST". Training already
// does: markov grows one candidate tree and each component is the ε-view of
// it that keeps the candidates whose inclusion threshold exceeds its ε, so
// the components differ only in which states they keep. Compile reads that
// one tree and its one escape table into a suffix trie whose nodes live in
// flat slices (CSR child arrays indexed by dense node IDs, not string map
// keys), with
//
//   - a per-node K-bit presence bitmask recording which components hold the
//     node with prediction evidence,
//   - the escape-window occurrence counts of Eq. (6) stored on the node, so
//     the whole escape chain of a context is read off the descent path,
//   - followers precomputed twice per node: ranked (count-descending, the
//     frozen TopN order) for candidate pooling and ID-sorted with smoothed
//     probabilities for O(log f) score lookups,
//   - a root index that makes the descent's first, widest step one load.
//
// One trie descent then answers everything Predict needs — every component's
// matched state (deepest path node with the component's bit), the Eq. (4)
// mixture weights, the Eq. (5) escape-chain factors (each path level's Eq. (6)
// factor computed once and shared by every component's chain) and the
// candidate scores — with zero heap allocations: scratch comes from a
// sync.Pool and top-N selection uses a bounded heap instead of sorting all
// candidates.
//
// The build phase (training, σ learning, KL pruning) keeps the mutable
// map-based representation; Compile freezes it into this read-optimised form,
// the same build-vs-serve split log-structured systems use. Predictions are
// numerically within 1e-12 of the interpreted mixture (the escape-chain and
// scoring sums are re-associated) and rank-identical on non-degenerate ties;
// the parity property test in this package enforces both.
//
// The compiled form has one persistent encoding, CPS5 (AppendFlat5,
// FromBytes, OpenMmap): follower probabilities as fixed-point uint16
// against per-node float32 steps, ranked views as uint16 indices (uint32 for
// a node of more than 65535 followers), node arrays narrowed to their needed
// width, follower-ID lists delta-encoded and varint-packed per node, CSR
// offsets as varint count streams — at a bounded (≤ qstep/2 per node, ≤ ~2e-5
// absolute) probability error. The fixed-width arrays are aliased zero-copy
// on little-endian platforms and decoded portably (no unsafe) elsewhere; the
// packed follower-ID region is decoded once, at load, so CPS5 and exact
// models share one descent and differ only in where a follower's probability
// is read from. Compile's exact model is never written: it stays in process
// as the parity oracle. Models loaded from CPS5 report Quantised() == true.
//
// Serving invariants, compiled or loaded: prediction is
// allocation-free at steady state (pooled scratch, bounded top-N heap),
// models are immutable and safe for unbounded concurrent readers, and a
// corrupted flat blob loaded without its CRC check (the zero-copy path,
// which must not fault every page in) can misrank but can never panic or
// index out of bounds — nor make its load allocate by a header word or a
// varint value rather than by the blob's own length.
package compiled

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/markov"
)

// maxComponents bounds the mixture size representable in the per-node
// presence bitmask. The paper's mixture uses 11 components.
const maxComponents = 64

// Model is the compiled single-PST form of an MVMM. It is immutable after
// Compile or loading and safe for any number of concurrent predictors.
type Model struct {
	k     int // mixture components
	vocab int // |Q| for the stage-(c) smoothing
	depth int // deepest stored suffix length

	sigma  []float64 // per-component Gaussian widths (Eq. 4)
	maxLen []int     // per-component escape-window bound (0 / huge = unbounded)
	// weights tabulates Eq. (4): weights[i*weightTableLen+d] is
	// markov.Gaussian(d, sigma[i]), filled once at load (initServing).
	weights []float64

	// Trie in CSR form. Node 0 is the root (empty context); an edge carries
	// the query ID that *prepends* the parent's suffix (descent consumes the
	// context newest-to-oldest). Children of node v occupy edge indices
	// childStart[v]..childStart[v+1], sorted by childKey; the nodes are laid
	// out in breadth-first edge order, so edge e always leads to node e+1 and
	// no child-node array is needed.
	childStart []int32
	childKey   []uint32
	rootChild  []int32 // root index: rootChild[sym] = the root's child over sym, or -1 (initServing)

	// Per-node payload, indexed by node ID. Exactly one representation is
	// populated per array: the wide float64/uint64 slices for models built by
	// Compile, or the narrow slices for models loaded from CPS5 (evidence16
	// when the component count fits 16 bits, occ32/startOcc32 when every
	// count fits 32, floor32 always). The accessor methods (evidenceAt,
	// occAt, startOccAt, floorAt) pick the live one.
	evidence   []uint64  // bit i set ⇔ component i stores this state with followers
	evidence16 []uint16  // CPS5 narrow form of evidence (k <= 16)
	occ        []uint64  // Eq. (6) window occurrences |[·,s]| of the node's suffix
	occ32      []uint32  // CPS5 narrow form of occ
	startOcc   []uint64  // session-start occurrences |[e,s]|
	startOcc32 []uint32  // CPS5 narrow form of startOcc
	floor      []float64 // smoothed probability of an unobserved follower
	floor32    []float32 // CPS5 narrow form of floor

	// Followers, one CSR range per node. Ranked order is the frozen TopN
	// ranking (count descending, ID ascending); sorted order is ID-ascending
	// for binary-search probability lookups.
	//
	// Every model carries folIDSorted. Exact models (Compile) also carry
	// folIDRanked/folPSorted in uint32/float64. Quantised (CPS5-loaded)
	// models carry neither: folQSorted holds fixed-point uint16 probabilities
	// dequantised via the per-node qstep (non-nil ⇔ quantised), folRankIdx
	// the ranked view as uint16 indices into the node's ID-sorted range —
	// folRankWide as uint32 instead when some node has more than 65535
	// followers — and folIDSorted is decoded from the blob's varint-packed
	// region once, at load.
	folStart    []int32
	folIDRanked []uint32
	folIDSorted []uint32
	folPSorted  []float64
	folQSorted  []uint16
	folRankIdx  []uint16
	folRankWide []uint32
	qstep       []float32 // per-node dequantisation step: p = qstep[v] * q

	nodes int // node count including the root (len of the per-node arrays)

	scratch scratchPool

	// Mmap backing (models returned by OpenMmap only): the full mapping the
	// arrays alias, unmapped by Release or by the GC cleanup once the model
	// becomes unreachable.
	release     []byte
	cleanup     runtime.Cleanup
	releaseOnce sync.Once
	releaseErr  error
}

// Compile flattens a trained mixture into its serving form: the mixture's
// one candidate tree and one escape table become the flat trie. Its nodes
// are the escape windows — every context a query followed is a window, and
// windows are closed under suffixes — and a node's presence mask is the set
// of components whose view stores it with followers. Compile fails on a
// mixture of no components or of more than 64, and on a non-positive
// smoothing vocabulary.
func Compile(m *markov.MVMM) (*Model, error) {
	comps := m.Components()
	k := len(comps)
	if k == 0 {
		return nil, errors.New("compiled: mixture has no components")
	}
	if k > maxComponents {
		return nil, fmt.Errorf("compiled: %d components exceed the %d-bit presence mask", k, maxComponents)
	}
	vocab := comps[0].Config().Vocab
	if vocab <= 0 {
		return nil, fmt.Errorf("compiled: non-positive smoothing vocab %d", vocab)
	}

	c := &Model{k: k, vocab: vocab, sigma: m.Sigmas(), maxLen: make([]int, k)}
	esc := m.Escape()
	for i := range c.maxLen {
		c.maxLen[i] = esc.MaxLen()
	}
	nodes := make(map[string]*nodeInfo, esc.Len())
	esc.ForEachWindow(func(key string, occ, start uint64) {
		nodes[key] = &nodeInfo{occ: occ, start: start}
	})
	m.ForEachState(func(key string, d *markov.Dist, mask uint64) {
		ni := nodes[key]
		ni.dist, ni.mask = d, mask
	})
	c.layout(nodes)
	return c, nil
}

// nodeInfo is the pre-layout view of one trie node.
type nodeInfo struct {
	dist  *markov.Dist // follower distribution (nil: escape-only node)
	mask  uint64       // components storing this state with evidence
	occ   uint64
	start uint64
	id    int32 // assigned by layout
}

// layout assigns dense node IDs level by level — children of lower-ID
// parents first, siblings sorted by edge symbol — which makes the edge list
// globally parent-ordered so that edge e leads to node e+1, then fills every
// flat array.
func (c *Model) layout(nodes map[string]*nodeInfo) {
	type edge struct {
		key    string
		ni     *nodeInfo
		parent int32
		sym    uint32
	}
	byLen := make(map[int][]edge)
	maxDepth := 0
	for key, ni := range nodes {
		l := len(key) / 4
		byLen[l] = append(byLen[l], edge{key: key, ni: ni, sym: symbol(key)})
		if l > maxDepth {
			maxDepth = l
		}
	}
	c.depth = maxDepth

	n := len(nodes) + 1 // + root
	c.childKey = make([]uint32, 0, n-1)
	edgeParent := make([]int32, 0, n-1)
	order := make([]*nodeInfo, 1, n) // order[v] = info of node v (order[0] = nil root)

	for l := 1; l <= maxDepth; l++ {
		level := byLen[l]
		// Parent IDs are already assigned (level l-1); sort by (parent, symbol).
		for i := range level {
			level[i].parent = parentID(nodes, level[i].key)
		}
		sort.Slice(level, func(i, j int) bool {
			if level[i].parent != level[j].parent {
				return level[i].parent < level[j].parent
			}
			return level[i].sym < level[j].sym
		})
		for _, e := range level {
			e.ni.id = int32(len(order))
			order = append(order, e.ni)
			// Edges arrive in (parent, symbol) order across the whole build
			// because every level-l parent ID is smaller than every
			// level-(l+1) parent ID — that global ordering is what makes the
			// "edge e leads to node e+1" layout invariant hold.
			c.childKey = append(c.childKey, e.sym)
			edgeParent = append(edgeParent, e.parent)
		}
	}
	// CSR offsets: count edges per parent, then prefix-sum. Edges are
	// parent-sorted, so each node's children form one contiguous range.
	c.childStart = make([]int32, n+1)
	for _, p := range edgeParent {
		c.childStart[p+1]++
	}
	for v := 1; v <= n; v++ {
		c.childStart[v] += c.childStart[v-1]
	}

	c.nodes = n
	c.evidence = make([]uint64, n)
	c.occ = make([]uint64, n)
	c.startOcc = make([]uint64, n)
	c.floor = make([]float64, n)
	c.folStart = make([]int32, 1, n+1)
	for v := 1; v < n; v++ {
		ni := order[v]
		c.evidence[v] = ni.mask
		c.occ[v] = ni.occ
		c.startOcc[v] = ni.start
		var ids []uint32
		var counts []uint64
		if ni.dist != nil {
			qs := ni.dist.Queries() // ascending ID
			ids = make([]uint32, len(qs))
			counts = make([]uint64, len(qs))
			for j, q := range qs {
				ids[j] = uint32(q)
				counts[j] = ni.dist.Count(q)
			}
		}
		c.appendFollowers(v, ids, counts)
	}
	c.folStart = append(c.folStart, int32(len(c.folIDSorted)))
	c.initServing(c.vocab)
}

// parentID resolves a key's parent node (the key minus its oldest query).
func parentID(nodes map[string]*nodeInfo, key string) int32 {
	if len(key) == 4 {
		return 0
	}
	return nodes[key[4:]].id
}

// symbol is the edge label: the key's oldest query ID (leading 4 bytes).
func symbol(key string) uint32 {
	return uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
}

// appendFollowers installs node v's follower arrays from its ID-ascending
// (ids, counts) pairs, reproducing Dist.SmoothedP's arithmetic exactly:
// z = 1 + u/|Q| with u unobserved queries, observed probability c/total/z,
// unobserved floor (1/|Q|)/z. Nodes must be appended in ID order.
func (c *Model) appendFollowers(v int, ids []uint32, counts []uint64) {
	if v != len(c.folStart) {
		panic("compiled: followers appended out of node order")
	}
	c.folStart = append(c.folStart, int32(len(c.folIDSorted))) // folStart[v]
	support := len(ids)
	if support == 0 {
		return
	}
	var total uint64
	for _, cnt := range counts {
		total += cnt
	}
	u := c.vocab - support
	if u < 0 {
		u = 0
	}
	z := 1 + float64(u)/float64(c.vocab)
	c.floor[v] = 1 / float64(c.vocab) / z

	c.folIDSorted = append(c.folIDSorted, ids...)
	for _, cnt := range counts {
		c.folPSorted = append(c.folPSorted, float64(cnt)/float64(total)/z)
	}
	// Ranked view: count descending, ID ascending — the frozen TopN order.
	perm := make([]int, support)
	for j := range perm {
		perm[j] = j
	}
	sort.Slice(perm, func(a, b int) bool {
		if counts[perm[a]] != counts[perm[b]] {
			return counts[perm[a]] > counts[perm[b]]
		}
		return ids[perm[a]] < ids[perm[b]]
	})
	for _, j := range perm {
		c.folIDRanked = append(c.folIDRanked, ids[j])
	}
}

// Name implements model.Predictor.
func (c *Model) Name() string {
	if c.Quantised() {
		return "MVMM (compiled, quantised)"
	}
	return "MVMM (compiled)"
}

// Components reports the number of mixture components baked in.
func (c *Model) Components() int { return c.k }

// Vocab reports the smoothing vocabulary size |Q|.
func (c *Model) Vocab() int { return c.vocab }

// Depth reports the deepest stored suffix length.
func (c *Model) Depth() int { return c.depth }

// Nodes reports the trie size excluding the root — the realised
// version of the paper's Table VII single-PST deployment estimate.
func (c *Model) Nodes() int { return c.nodes - 1 }

// Followers reports the total follower entries across all nodes.
func (c *Model) Followers() int { return int(c.folStart[len(c.folStart)-1]) }

// ExactBytes reports what the model's arrays take in the exact form Compile
// builds and keeps in process: per-component σ and window bounds, the CSR
// trie, the four per-node arrays and the three follower arrays (ranked IDs,
// sorted IDs, float64 probabilities). Table VII sets the CPS5 blob against
// it. What initServing derives (weight table, root index) is not counted.
func (c *Model) ExactBytes() int64 {
	n, f := int64(c.nodes), int64(c.Followers())
	return 16*int64(c.k) + 4*(n+1) + 4*int64(len(c.childKey)) + 32*n + 4*(n+1) + 16*f
}

// Quantised reports whether the model was loaded from CPS5: follower
// probabilities are served from the fixed-point representation
// (bounded-error dequantisation) rather than the exact float64 arrays a
// model built by Compile carries.
func (c *Model) Quantised() bool { return c.qstep != nil }

// Per-node accessors bridging the exact (wide) and quantised (narrow) array
// representations; the nil check resolves to the populated one. The branch
// predicts perfectly — a model is one or the other for its whole lifetime.

func (c *Model) evidenceAt(v int32) uint64 {
	if c.evidence != nil {
		return c.evidence[v]
	}
	return uint64(c.evidence16[v])
}

func (c *Model) occAt(v int32) uint64 {
	if c.occ != nil {
		return c.occ[v]
	}
	return uint64(c.occ32[v])
}

func (c *Model) startOccAt(v int32) uint64 {
	if c.startOcc != nil {
		return c.startOcc[v]
	}
	return uint64(c.startOcc32[v])
}

func (c *Model) floorAt(v int32) float64 {
	if c.floor != nil {
		return c.floor[v]
	}
	return float64(c.floor32[v])
}
