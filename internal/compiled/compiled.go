// Package compiled turns a trained markov.MVMM mixture into a single flat
// Prediction Suffix Tree optimised for serving.
//
// The paper's deployment note (Table VII) observes that the mixture's K VMM
// components "can actually combine all into a single PST": every component is
// grown from the same candidate statistics, so whenever two components store
// the same suffix state they store the *same* follower distribution — the
// components differ only in which states they kept. Compile exploits that:
// it merges all component trees and escape tables into one suffix trie whose
// nodes live in flat slices (CSR child arrays indexed by dense node IDs, not
// string map keys), with
//
//   - a per-node K-bit presence bitmask recording which components hold the
//     node with prediction evidence,
//   - the escape-window occurrence counts of Eq. (6) stored on the node, so
//     the whole escape chain of a context is read off the descent path,
//   - followers precomputed twice per node: ranked (count-descending, the
//     frozen TopN order) for candidate pooling and ID-sorted with smoothed
//     probabilities for O(log f) score lookups.
//
// One trie descent then answers everything Predict needs — every component's
// matched state (deepest path node with the component's bit), the Eq. (4)
// mixture weights, the Eq. (5) escape-chain factors and the candidate
// scores — with zero heap allocations: scratch comes from a sync.Pool and
// top-N selection uses a bounded heap instead of sorting all candidates.
//
// The build phase (training, σ learning, KL pruning) keeps the mutable
// map-based representation; Compile freezes it into this read-optimised form,
// the same build-vs-serve split log-structured systems use. Predictions are
// numerically within 1e-12 of the interpreted mixture (the escape-chain and
// scoring sums are re-associated) and rank-identical on non-degenerate ties;
// the parity property test in this package enforces both.
//
// The compiled form has two persistent encodings, both little-endian and
// mmap-able, told apart by the blob's leading magic (FromBytes, OpenMmap):
//
//   - CPS3 (AppendFlat): exact fixed-width arrays at 8-byte-aligned
//     offsets, aliased zero-copy on little-endian platforms, decoded
//     portably (no unsafe) elsewhere. The parity oracle, and the fallback
//     for models CPS5 refuses.
//   - CPS5 (AppendFlat5): the compact default — follower probabilities as
//     fixed-point uint16 against per-node float32 steps, ranked views as
//     uint16 indices, node arrays narrowed to their needed width,
//     follower-ID lists delta-encoded and varint-packed per node, CSR
//     offsets as varint count streams. About 40% of the CPS3 size at a
//     bounded (≤ qstep/2 per node, ≤ ~2e-5 absolute) probability error.
//     The packed follower-ID region is decoded per matched node at serve
//     time into pooled scratch, so prediction stays allocation-free.
//     Models loaded from CPS5 report Quantised() == true and cannot be
//     re-encoded as CPS3 (raw counts are not stored); a model CPS5 cannot
//     hold is refused with ErrUnquantisable.
//
// Serving invariants, whatever the source encoding: prediction is
// allocation-free at steady state (pooled scratch, bounded top-N heap),
// models are immutable and safe for unbounded concurrent readers, and a
// corrupted flat blob loaded without its CRC check (the zero-copy path,
// which must not fault every page in) can misrank but can never panic or
// index out of bounds.
package compiled

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/markov"
	"repro/internal/query"
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

	// Per-node payload, indexed by node ID. Exactly one representation is
	// populated per array: the wide float64/uint64 slices for models built by
	// Compile or loaded from CPS3, or the narrow slices for models loaded
	// from CPS5 (evidence16 when the component count fits 16 bits,
	// occ32/startOcc32 when every count fits 32, floor32 always). The
	// accessor methods (evidenceAt, occAt, startOccAt, floorAt) pick the
	// live one.
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
	// for binary-search probability lookups. folCount holds the raw counts in
	// sorted order for serialisation and introspection.
	//
	// Exact models (Compile, CPS3) carry folIDRanked/folPRanked/folIDSorted/
	// folPSorted/folCount in uint32/float64/uint64. Quantised (CPS5-loaded)
	// models carry none of those: folQSorted holds fixed-point uint16
	// probabilities dequantised via the per-node qstep, folRankIdx the ranked
	// view as uint16 indices into the node's ID-sorted range, and the
	// follower IDs stay varint-packed in folIDVar (non-nil ⇔ quantised) —
	// folOff[v]..folOff[v+1] bounds node v's packed group, decoded into
	// pooled scratch per matched node at serve time. Raw counts are not
	// preserved, so a quantised model cannot be re-encoded as CPS3.
	folStart    []int32
	folIDRanked []uint32
	folPRanked  []float64
	folIDSorted []uint32
	folPSorted  []float64
	folCount    []uint64
	folQSorted  []uint16
	folRankIdx  []uint16
	qstep       []float32 // per-node dequantisation step: p = qstep[v] * q
	folIDVar    []byte
	folOff      []int32

	nodes int // node count including the root (len of the per-node arrays)

	scratch scratchPool

	// Mmap backing (models returned by OpenMmap only): the full mapping the
	// arrays alias, unmapped by Release or by the GC cleanup once the model
	// becomes unreachable. mapAdvice records the kernel paging hints applied
	// to the mapping (OpenMmapAdvised), "" when none were requested.
	release     []byte
	cleanup     runtime.Cleanup
	releaseOnce sync.Once
	releaseErr  error
	mapAdvice   string
}

// Compile flattens a trained mixture into its serving form. It fails — and
// the caller should keep serving the interpreted mixture — when the mixture
// violates the shared-statistics invariants the flat form relies on: more
// than 64 components, differing smoothing vocabularies, components whose
// escape tables disagree, or a shared state stored with diverging follower
// counts. Mixtures trained (or loaded) through this repository's pipeline
// always compile.
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
	for i, cmp := range comps {
		if v := cmp.Config().Vocab; v != vocab {
			return nil, fmt.Errorf("compiled: component %d smoothing vocab %d != %d", i, v, vocab)
		}
	}
	if vocab <= 0 {
		return nil, fmt.Errorf("compiled: non-positive smoothing vocab %d", vocab)
	}

	c := &Model{k: k, vocab: vocab, sigma: m.Sigmas(), maxLen: make([]int, k)}

	merged, err := c.mergeEscapes(comps)
	if err != nil {
		return nil, err
	}
	nodes, err := unionNodes(comps, merged)
	if err != nil {
		return nil, err
	}
	c.layout(nodes)
	return c, nil
}

// window is one merged escape-table entry.
type window struct {
	occ, start uint64
}

// mergeEscapes merges the per-component escape tables into one window map,
// verifying that the tables are projections of the same statistics: shared
// windows must carry identical counts, and each component's table must hold
// exactly the merged windows within its length bound (a mismatch means the
// components were not trained from the same sessions, and per-component
// escape chains cannot be answered from one merged table).
func (c *Model) mergeEscapes(comps []*markov.VMM) (map[string]window, error) {
	merged := make(map[string]window)
	seen := make(map[*markov.EscapeTable]bool, len(comps))
	var conflict string
	for i, cmp := range comps {
		t := cmp.Escape()
		c.maxLen[i] = t.MaxLen()
		if seen[t] { // training shares one table across equal-D components
			continue
		}
		seen[t] = true
		t.ForEachWindow(func(key string, occ, start uint64) {
			if w, ok := merged[key]; ok {
				if w.occ != occ || w.start != start {
					conflict = key
				}
				return
			}
			merged[key] = window{occ: occ, start: start}
		})
		if conflict != "" {
			return nil, fmt.Errorf("compiled: component %d escape counts diverge on window %v",
				i, query.SeqFromKey(conflict))
		}
	}
	// Coverage: component i must contain every merged window of length
	// <= maxLen[i] (and nothing else — the value check above covered those).
	maxWin := 0
	for key := range merged {
		if l := len(key) / 4; l > maxWin {
			maxWin = l
		}
	}
	cum := make([]int, maxWin+1) // cum[l] = merged windows of length <= l
	for key := range merged {
		cum[len(key)/4]++
	}
	for l := 1; l <= maxWin; l++ {
		cum[l] += cum[l-1]
	}
	for i, cmp := range comps {
		want := len(merged)
		if ml := c.maxLen[i]; ml > 0 && ml < maxWin {
			want = cum[ml]
		}
		if got := cmp.Escape().Len(); got != want {
			return nil, fmt.Errorf("compiled: component %d escape table holds %d windows, merged form implies %d",
				i, got, want)
		}
	}
	return merged, nil
}

// nodeInfo is the pre-layout view of one merged trie node.
type nodeInfo struct {
	dist  *markov.Dist // canonical follower distribution (nil: escape-only node)
	mask  uint64       // components storing this state with evidence
	occ   uint64
	start uint64
	id    int32 // assigned by layout
}

// unionNodes unions every component's evidence states with every escape
// window and suffix-closes the result so the merged structure is a valid
// trie. Components sharing a state must agree on its follower counts.
func unionNodes(comps []*markov.VMM, merged map[string]window) (map[string]*nodeInfo, error) {
	nodes := make(map[string]*nodeInfo, len(merged))
	get := func(key string) *nodeInfo {
		ni := nodes[key]
		if ni == nil {
			ni = &nodeInfo{}
			nodes[key] = ni
		}
		return ni
	}
	for i, cmp := range comps {
		var conflict string
		cmp.ForEachNode(func(key string, d *markov.Dist) {
			if d.Total() == 0 {
				return // suffix-closure filler states carry no evidence
			}
			ni := get(key)
			switch {
			case ni.dist == nil:
				ni.dist = d
			case ni.dist != d && !distEqual(ni.dist, d):
				conflict = key
			}
			ni.mask |= 1 << uint(i)
		})
		if conflict != "" {
			return nil, fmt.Errorf("compiled: components disagree on followers of state %v",
				query.SeqFromKey(conflict))
		}
	}
	for key, w := range merged {
		ni := get(key)
		ni.occ, ni.start = w.occ, w.start
	}
	// Suffix closure: every trailing sub-sequence of a stored key must be a
	// node so descent paths are connected.
	keys := make([]string, 0, len(nodes))
	for key := range nodes {
		keys = append(keys, key)
	}
	for _, key := range keys {
		for s := key[4:]; len(s) > 0; s = s[4:] {
			if _, ok := nodes[s]; !ok {
				nodes[s] = &nodeInfo{}
			}
		}
	}
	return nodes, nil
}

// distEqual reports whether two follower distributions carry identical
// counts. Components trained from shared statistics reference the same Dist
// (caught by the pointer check before this is called); deserialized mixtures
// hold structurally equal copies.
func distEqual(a, b *markov.Dist) bool {
	if a.Total() != b.Total() || a.Support() != b.Support() {
		return false
	}
	equal := true
	b.ForEachCount(func(q query.ID, c uint64) {
		if a.Count(q) != c {
			equal = false
		}
	})
	return equal
}

// layout assigns dense node IDs level by level — children of lower-ID
// parents first, siblings sorted by edge symbol — which makes the edge list
// globally parent-ordered so that edge e leads to node e+1, then fills every
// flat array.
func (c *Model) layout(nodes map[string]*nodeInfo) {
	byLen := make(map[int][]string)
	maxDepth := 0
	for key := range nodes {
		l := len(key) / 4
		byLen[l] = append(byLen[l], key)
		if l > maxDepth {
			maxDepth = l
		}
	}
	c.depth = maxDepth

	n := len(nodes) + 1 // + root
	c.childKey = make([]uint32, 0, n-1)
	edgeParent := make([]int32, 0, n-1)
	order := make([]*nodeInfo, 1, n) // order[v] = info of node v (order[0] = nil root)

	nextID := int32(1)
	for l := 1; l <= maxDepth; l++ {
		level := byLen[l]
		// Parent IDs are already assigned (level l-1); sort by (parent, symbol).
		sort.Slice(level, func(i, j int) bool {
			pi, pj := parentID(nodes, level[i]), parentID(nodes, level[j])
			if pi != pj {
				return pi < pj
			}
			return symbol(level[i]) < symbol(level[j])
		})
		for _, key := range level {
			ni := nodes[key]
			ni.id = nextID
			nextID++
			order = append(order, ni)
			// Edges arrive in (parent, symbol) order across the whole build
			// because every level-l parent ID is smaller than every
			// level-(l+1) parent ID — that global ordering is what makes the
			// "edge e leads to node e+1" layout invariant hold.
			c.childKey = append(c.childKey, symbol(key))
			edgeParent = append(edgeParent, parentID(nodes, key))
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
	c.initServing()
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

	base := len(c.folIDSorted)
	c.folIDSorted = append(c.folIDSorted, ids...)
	c.folCount = append(c.folCount, counts...)
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
		c.folPRanked = append(c.folPRanked, c.folPSorted[base+j])
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

// Nodes reports the merged trie size excluding the root — the realised
// version of the paper's Table VII single-PST deployment estimate.
func (c *Model) Nodes() int { return c.nodes - 1 }

// Followers reports the total follower entries across all nodes.
func (c *Model) Followers() int { return int(c.folStart[len(c.folStart)-1]) }

// Quantised reports whether the model was loaded from CPS5: follower
// probabilities are served from the fixed-point representation
// (bounded-error dequantisation) rather than the exact float64 arrays and
// raw counts a model built by Compile or loaded from CPS3 carries. Only a
// model that is not quantised can be written as CPS3.
func (c *Model) Quantised() bool { return c.folIDVar != nil }

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
