package markov

import (
	"math"

	"repro/internal/query"
)

// pst is the one integer suffix trie a training run builds (the paper's
// Table VII: the K trees "can actually combine all into a single PST"). Its
// nodes are the windows of the training sessions — every query sequence
// observed, up to the context bound D — and node 0 is the empty context. A
// node is its parent, the context one query shorter, plus the query it
// prepends: a descent reads a context newest query first.
//
// Each node carries the two things a context needs:
//
//   - its window counts, the Eq. (6) escape evidence (Sec. IV.C.2(b)): how
//     often the window occurred anywhere, Σ_q |[q,s]| + |[e,s]|, and how
//     often at a session start, |[e,s]|;
//   - when some query followed it, its followers — the node is then a
//     candidate of PST stage (a) — and its inclusion threshold θ: the larger
//     of its own KL against its parent and the θ of every extension. The
//     tree grown with threshold ε (the supported candidates that diverge by
//     more than ε, closed under suffixes) is exactly {s : θ(s) > ε}. This is
//     the growth rule of Ron, Singer & Tishby's prediction suffix trees ("The
//     Power of Amnesia", 1996) with the threshold test deferred to the view.
//
// Windows are closed under suffixes, and so are candidates: a node's parent
// is always a node, and a candidate's parent a candidate or the root.
type pst struct {
	cfg    VMMConfig        // D, MinSupport and Vocab; Epsilon belongs to each view
	nodes  []node           // by ID; a parent's ID is below its children's
	child  map[uint64]int32 // edge(parent, sym) -> child ID
	root   *Dist            // the empty-context prior (node e)
	maxLen int              // window bound: D, or the longest session when D is 0
}

// node is one window of the trie.
type node struct {
	parent   int32
	sym      query.ID // the oldest query of the window
	depth    int32    // window length
	occ      uint64   // occurrences anywhere
	startOcc uint64   // occurrences at a session start
	dist     *Dist    // followers; nil when nothing followed the window
	theta    float64  // inclusion threshold θ; -Inf for a non-candidate
}

// edge is the child-map key of the node that prepends sym to parent.
func edge(parent int32, sym query.ID) uint64 { return uint64(parent)<<32 | uint64(sym) }

// growPST builds the trie in one pass over the sessions, then gives every
// candidate its θ in one pass down the IDs. For each session and each end
// position it descends from the root over the queries before that position,
// newest first and at most D deep (0 = unbounded), creating missing nodes;
// every visited node counts the session as a window occurrence, and as a
// follower observation when a query comes next. A candidate under
// MinSupport seeds nothing (own θ -Inf) but is still kept by closure when an
// extension is; a supported depth-1 candidate always seeds (own θ +Inf).
func growPST(sessions []query.Session, cfg VMMConfig) *pst {
	t := &pst{cfg: cfg, nodes: make([]node, 1), child: make(map[uint64]int32), root: NewDist()}
	if cfg.D > 0 {
		t.maxLen = cfg.D
	}
	for _, s := range sessions {
		q := s.Queries
		if cfg.D <= 0 {
			t.maxLen = max(t.maxLen, len(q))
		}
		// The root prior also counts first queries so that P(q|e) reflects
		// the marginal query distribution (Fig. 3's node e).
		if len(q) > 0 {
			t.root.Add(q[0], s.Count)
		}
		for e := 1; e <= len(q); e++ {
			if e < len(q) {
				t.root.Add(q[e], s.Count)
			}
			lo := 0
			if cfg.D > 0 {
				lo = max(0, e-cfg.D)
			}
			v := int32(0)
			for j := e - 1; j >= lo; j-- {
				v = t.step(v, q[j])
				n := &t.nodes[v]
				n.occ += s.Count
				if j == 0 {
					n.startOcc += s.Count
				}
				if e < len(q) {
					if n.dist == nil {
						n.dist = NewDist()
					}
					n.dist.Add(q[e], s.Count)
				}
			}
		}
	}

	t.root.Freeze()
	plogp := make([]float64, len(t.nodes)) // Σ p̃ log10 p̃ per parent, for klSmoothedFast
	for i := range plogp {
		plogp[i] = math.NaN()
	}
	for id := 1; id < len(t.nodes); id++ {
		n := &t.nodes[id]
		if n.dist == nil {
			n.theta = math.Inf(-1)
			continue
		}
		n.dist.Freeze()
		switch {
		case n.dist.Total() < cfg.MinSupport:
			n.theta = math.Inf(-1)
		case n.parent == 0:
			n.theta = math.Inf(1)
		default:
			p := n.parent
			if math.IsNaN(plogp[p]) {
				plogp[p] = sumPLogP(t.nodes[p].dist)
			}
			n.theta = klSmoothedFast(t.nodes[p].dist, n.dist, cfg.Vocab, plogp[p])
		}
	}
	// Walking IDs downward raises each θ to its extensions' before it is
	// passed on.
	for id := len(t.nodes) - 1; id > 0; id-- {
		if n := t.nodes[id]; n.parent != 0 {
			p := &t.nodes[n.parent]
			p.theta = max(p.theta, n.theta)
		}
	}
	return t
}

// step returns the child of v over sym, creating it if it is missing.
func (t *pst) step(v int32, sym query.ID) int32 {
	k := edge(v, sym)
	c, ok := t.child[k]
	if !ok {
		c = int32(len(t.nodes))
		t.nodes = append(t.nodes, node{parent: v, sym: sym, depth: t.nodes[v].depth + 1})
		t.child[k] = c
	}
	return c
}

// descend appends to path the nodes of ctx's suffixes, shortest first —
// path[k-1] is the node of ctx[len(ctx)-k:] — stopping at the first suffix
// that is not a window: no longer one is.
func (t *pst) descend(path []int32, ctx query.Seq) []int32 {
	v := int32(0)
	for i := len(ctx) - 1; i >= 0; i-- {
		c, ok := t.child[edge(v, ctx[i])]
		if !ok {
			break
		}
		path = append(path, c)
		v = c
	}
	return path
}

// escape returns Eq. (6)'s P̂(escape | [q, s']) for an unmatched context
// whose suffix s' has k queries, given path from descend: the probability
// that q is "new" and prediction should fall back to s',
//
//	|[e, s']| / (Σ_q |[q, s']| + |[e, s']|).
//
// Two guards keep the recursion well-defined on sparse data: when s' was
// never observed the escape is 1 (no evidence to penalise with), and a zero
// numerator is floored at 1/(occ+1) so a single unobserved prefix cannot
// zero out the whole generative probability — the paper's escape exists to
// *penalise* partial matches, not to veto them. Escaping from a single
// unmatched query (k = 0) costs an uninformative 0.5.
func (t *pst) escape(path []int32, k int) float64 {
	if k == 0 {
		return 0.5
	}
	if k > len(path) {
		return 1
	}
	n := &t.nodes[path[k-1]]
	if n.occ == 0 {
		return 1
	}
	if n.startOcc == 0 {
		return 1 / float64(n.occ+1)
	}
	return float64(n.startOcc) / float64(n.occ)
}
