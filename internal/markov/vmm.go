package markov

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/query"
)

// VMMConfig parameterises Prediction-Suffix-Tree learning (Sec. IV.B.1).
type VMMConfig struct {
	// Epsilon is the PST growth threshold: a context node s is added when
	// the KL divergence between its parent's predictive distribution and
	// its own exceeds Epsilon. Epsilon <= 0 grows the full tree (the
	// paper's "VMM (0.0)" / infinitely-bounded extreme of Fig. 4);
	// Epsilon = +Inf degenerates to the Adjacency 2-gram.
	Epsilon float64
	// D bounds the maximum context length (PST depth). 0 means unbounded.
	D int
	// MinSupport filters candidate contexts observed fewer than this many
	// times ("a user threshold could be set to filter those infrequent
	// training sequences"). 0 keeps everything.
	MinSupport uint64
	// Vocab is |Q|, used for the stage-(c) 1/|Q| smoothing.
	Vocab int
}

// VMM is a Variable Memory Markov model learned as a Prediction Suffix Tree.
// States are suffix contexts; prediction walks to the deepest suffix of the
// user context present in the tree (O(D) online, Sec. IV.B.2).
type VMM struct {
	cfg   VMMConfig
	nodes map[string]*Dist // suffix key -> follower distribution
	root  *Dist            // the empty-context prior (node e)
	esc   *EscapeTable
	depth int // deepest stored node
}

// NewVMM learns a VMM from aggregated training sessions via the three-stage
// PST algorithm of Sec. IV.B.1:
//
//	(a) extract candidate suffixes with conditional follower counts,
//	(b) grow the tree: all length-1 contexts, plus longer contexts whose
//	    predictive distribution diverges from their parent's by more than
//	    Epsilon (suffix-closed),
//	(c) smooth unobserved events with a uniform 1/|Q| floor (applied lazily
//	    in Prob).
func NewVMM(sessions []query.Session, cfg VMMConfig) *VMM {
	if cfg.Vocab <= 0 {
		cfg.Vocab = guessVocab(sessions)
	}
	c := buildCandidates(sessions, cfg.D)
	m := growVMM(c, cfg)
	m.freeze()
	return m
}

// candidates is the shared output of PST stage (a): the conditional
// follower counts of every suffix context, the root prior, the escape
// table, and the depth-sorted candidate keys. Mixture training builds it
// once and grows every component from it (the paper: the K models "can be
// independently trained in parallel" — they share all sufficient
// statistics).
type candidates struct {
	cand  map[string]*Dist
	keys  []string // sorted by depth then key
	root  *Dist
	esc   *EscapeTable
	plogp map[string]float64 // cached Σ p̃ log10 p̃ per parent
}

// buildCandidates runs stage (a) over the training sessions with context
// bound D (0 = unbounded).
func buildCandidates(sessions []query.Session, d int) *candidates {
	c := &candidates{cand: make(map[string]*Dist), root: NewDist(), plogp: make(map[string]float64)}
	maxSess := 0
	for _, s := range sessions {
		l := len(s.Queries)
		if l > maxSess {
			maxSess = l
		}
		for i := 1; i < l; i++ {
			next := s.Queries[i]
			c.root.Add(next, s.Count)
			limit := i
			if d > 0 && limit > d {
				limit = d
			}
			for k := 1; k <= limit; k++ {
				key := s.Queries[i-k : i].Key()
				dist := c.cand[key]
				if dist == nil {
					dist = NewDist()
					c.cand[key] = dist
				}
				dist.Add(next, s.Count)
			}
		}
		// The root prior also counts first queries so that P(q|e) reflects
		// the marginal query distribution (Fig. 3's node e).
		if l > 0 {
			c.root.Add(s.Queries[0], s.Count)
		}
	}
	c.keys = make([]string, 0, len(c.cand))
	for k := range c.cand {
		c.keys = append(c.keys, k)
	}
	sort.Slice(c.keys, func(i, j int) bool {
		if len(c.keys[i]) != len(c.keys[j]) {
			return len(c.keys[i]) < len(c.keys[j])
		}
		return c.keys[i] < c.keys[j]
	})
	escLen := d
	if escLen <= 0 {
		escLen = maxSess
	}
	c.esc = NewEscapeTable(sessions, escLen)
	return c
}

// freezeAll precomputes rankings and the per-parent Σ p̃ log10 p̃ cache so
// multiple components can grow from the shared candidates concurrently
// without mutating them.
func (c *candidates) freezeAll() {
	c.root.Freeze()
	for k, d := range c.cand {
		d.Freeze()
		c.plogp[k] = sumPLogP(d)
	}
}

func (c *candidates) parentStats(key string) (*Dist, float64) {
	parent := c.cand[key]
	if parent == nil {
		return c.root, sumPLogP(c.root)
	}
	sum, ok := c.plogp[key]
	if !ok {
		// Sequential path: compute and cache lazily. The concurrent path
		// pre-populates the cache via freezeAll.
		sum = sumPLogP(parent)
		c.plogp[key] = sum
	}
	return parent, sum
}

// growVMM runs stage (b) — depth-ordered ε growth with suffix closure —
// over shared candidates. It does not freeze the result; NewVMM and
// NewMVMM handle freezing.
func growVMM(c *candidates, cfg VMMConfig) *VMM {
	m := &VMM{cfg: cfg, nodes: make(map[string]*Dist), root: c.root, esc: c.esc}
	for _, k := range c.keys {
		d := c.cand[k]
		if d.Total() < cfg.MinSupport {
			continue
		}
		depth := len(k) / 4
		if depth == 1 {
			m.addNode(k, d, 1)
			continue
		}
		if _, already := m.nodes[k]; already {
			continue
		}
		grow := cfg.Epsilon <= 0 // ε = 0 grows the full tree; skip the KL
		if !grow {
			parent, sum := c.parentStats(k[4:]) // drop the oldest query
			grow = klSmoothedFast(parent, d, cfg.Vocab, sum) > cfg.Epsilon
		}
		if grow {
			// Suffix closure: add s and every suffix of s.
			for sk := k; len(sk) > 0; sk = sk[4:] {
				if _, ok := m.nodes[sk]; ok {
					continue
				}
				sd := c.cand[sk]
				if sd == nil {
					sd = NewDist()
				}
				m.addNode(sk, sd, len(sk)/4)
			}
		}
	}
	return m
}

// freeze precomputes every node's TopN ranking so predictions are safe for
// concurrent callers.
func (m *VMM) freeze() {
	m.root.Freeze()
	for _, d := range m.nodes {
		d.Freeze()
	}
}

func (m *VMM) addNode(key string, d *Dist, depth int) {
	m.nodes[key] = d
	if depth > m.depth {
		m.depth = depth
	}
}

func guessVocab(sessions []query.Session) int {
	seen := make(map[query.ID]struct{})
	for _, s := range sessions {
		for _, q := range s.Queries {
			seen[q] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return 1
	}
	return len(seen)
}

// sumPLogP returns Σ_q p̃(q)·log10 p̃(q) over the MLE distribution — the
// per-parent cache that makes klSmoothedFast O(child support).
func sumPLogP(d *Dist) float64 {
	if d.total == 0 {
		return 0
	}
	var s float64
	tot := float64(d.total)
	for _, c := range d.counts {
		p := float64(c) / tot
		s += p * math.Log10(p)
	}
	return s
}

// klSmoothedFast computes D_KL(parent || child) over the stage-(c) smoothed
// distributions in O(|child support|), given sumPP = sumPLogP(parent).
// It is algebraically identical to klSmoothed: queries in the child's
// support are handled term by term; the parent-only remainder collapses to
// sumPP minus the overlap (all smoothed-child terms there share the same
// 1/|Q| floor); queries unobserved in both share one closed-form term.
func klSmoothedFast(parent, child *Dist, vocab int, sumPP float64) float64 {
	if parent.total == 0 || child.total == 0 {
		return math.Inf(1)
	}
	zp := 1 + float64(vocab-parent.Support())/float64(vocab)
	zc := 1 + float64(vocab-child.Support())/float64(vocab)
	floorP := 1 / float64(vocab) / zp
	floorC := 1 / float64(vocab) / zc
	ptot := float64(parent.total)
	ctot := float64(child.total)

	var kl float64
	overlapPLogP := 0.0 // Σ_{q∈C∩P} p̃ log10 p̃
	overlapMass := 0.0  // Σ_{q∈C∩P} p̃
	inParent := 0       // |C∩P|
	for q, cc := range child.counts {
		c := float64(cc) / ctot / zc
		if pc, ok := parent.counts[q]; ok {
			pt := float64(pc) / ptot
			p := pt / zp
			kl += p * math.Log10(p/c)
			overlapPLogP += pt * math.Log10(pt)
			overlapMass += pt
			inParent++
		} else {
			kl += floorP * math.Log10(floorP/c)
		}
	}
	// Parent-support queries outside the child's support: child assigns the
	// uniform floor, so Σ p·log10(p/floorC) expands around the cached sum.
	restPLogP := sumPP - overlapPLogP
	restMass := 1 - overlapMass
	if restMass > 1e-15 {
		kl += (restPLogP - restMass*(math.Log10(zp)+math.Log10(floorC))) / zp
	}
	// Queries unobserved in both distributions.
	u := vocab - parent.Support() - (child.Support() - inParent)
	if u > 0 {
		kl += float64(u) * floorP * math.Log10(zc/zp)
	}
	return kl
}

// klSmoothed computes D_KL(parent || child) in log10 over the stage-(c)
// smoothed distributions, in O(union support) time: queries unobserved in
// both distributions share a closed-form term. Kept as the reference
// implementation for klSmoothedFast (see the equivalence property test).
func klSmoothed(parent, child *Dist, vocab int) float64 {
	if parent.Total() == 0 || child.Total() == 0 {
		return math.Inf(1)
	}
	union := make(map[query.ID]struct{}, parent.Support()+child.Support())
	for _, q := range parent.Queries() {
		union[q] = struct{}{}
	}
	for _, q := range child.Queries() {
		union[q] = struct{}{}
	}
	var kl float64
	for q := range union {
		p := parent.SmoothedP(q, vocab)
		c := child.SmoothedP(q, vocab)
		if p == 0 {
			continue
		}
		kl += p * math.Log10(p/c)
	}
	u := vocab - len(union)
	if u > 0 {
		zp := 1 + float64(vocab-parent.Support())/float64(vocab)
		zc := 1 + float64(vocab-child.Support())/float64(vocab)
		pu := 1 / float64(vocab) / zp
		kl += float64(u) * pu * math.Log10(zc/zp)
	}
	return kl
}

// Name implements model.Predictor.
func (m *VMM) Name() string {
	if m.cfg.D > 0 {
		return fmt.Sprintf("%d-bounded VMM (%.2g)", m.cfg.D, m.cfg.Epsilon)
	}
	return fmt.Sprintf("VMM (%.2g)", m.cfg.Epsilon)
}

// Config returns the training configuration.
func (m *VMM) Config() VMMConfig { return m.cfg }

// NumNodes returns the PST size excluding the root. Table VII
// (internal/experiments) reports this interpreted tree's serialized bytes
// alongside the compiled CPS3/CPS5 serving blobs the deployment actually
// maps; the node count is the Sec. V.F.2 size quote.
func (m *VMM) NumNodes() int { return len(m.nodes) }

// Depth returns the deepest stored context length.
func (m *VMM) Depth() int { return m.depth }

// Escape exposes the escape table (shared with the MVMM mixture).
func (m *VMM) Escape() *EscapeTable { return m.esc }

// Root returns the empty-context prior distribution (node e).
func (m *VMM) Root() *Dist { return m.root }

// ForEachNode visits every stored PST node (suffix key in the Seq.Key
// layout plus its follower distribution) in unspecified order. Used by the
// compiled-model builder to merge components into a single flat trie.
func (m *VMM) ForEachNode(f func(key string, d *Dist)) {
	for k, d := range m.nodes {
		f(k, d)
	}
}

// nodeKeys returns all stored suffix keys; used by the union-PST node
// accounting behind Table VII (the estimate internal/compiled realises as
// the merged single tree).
func (m *VMM) nodeKeys() map[string]struct{} {
	out := make(map[string]struct{}, len(m.nodes))
	for k := range m.nodes {
		out[k] = struct{}{}
	}
	return out
}

// matchKeyBuf is the stack-allocated scratch for suffix-key encoding on the
// prediction hot path: contexts up to 64 queries deep walk the tree without
// heap allocation (deeper ones fall back to a transient buffer).
const matchKeyBuf = 64 * 4

// appendSeqKey encodes s in the Seq.Key layout (4 bytes per ID, big-endian)
// into dst without the string conversion, so suffix lookups can index the
// node map via the zero-copy map[string(b)] idiom.
func appendSeqKey(dst []byte, s query.Seq) []byte {
	for _, q := range s {
		dst = append(dst, byte(q>>24), byte(q>>16), byte(q>>8), byte(q))
	}
	return dst
}

// MatchState returns the deepest suffix of ctx stored in the tree with
// prediction evidence, and whether any such state exists. The empty state is
// returned only when ctx itself is empty. The walk is allocation-free: the
// tail of ctx is encoded once into a stack buffer and every suffix key is a
// trailing slice of it.
func (m *VMM) MatchState(ctx query.Seq) (query.Seq, *Dist, bool) {
	start := len(ctx)
	if m.depth < start {
		start = m.depth
	}
	if start == 0 {
		return nil, nil, false
	}
	var arr [matchKeyBuf]byte
	b := appendSeqKey(arr[:0], ctx[len(ctx)-start:])
	for k := start; k >= 1; k-- {
		if d, ok := m.nodes[string(b[len(b)-4*k:])]; ok && d.Total() > 0 {
			return ctx[len(ctx)-k:], d, true
		}
	}
	return nil, nil, false
}

// Predict implements model.Predictor: rank the followers of the deepest
// matching suffix state.
func (m *VMM) Predict(ctx query.Seq, topN int) []model.Prediction {
	if len(ctx) == 0 {
		return nil
	}
	_, d, ok := m.MatchState(ctx)
	if !ok {
		return nil
	}
	return d.TopN(topN)
}

// Prob implements model.Predictor using the deepest matching state with
// 1/|Q| smoothing. Uncovered contexts return 0.
func (m *VMM) Prob(ctx query.Seq, q query.ID) float64 {
	if len(ctx) == 0 {
		return m.root.SmoothedP(q, m.cfg.Vocab)
	}
	_, d, ok := m.MatchState(ctx)
	if !ok {
		return 0
	}
	return d.SmoothedP(q, m.cfg.Vocab)
}

// ProbEscape estimates P̂(q | ctx) via the recursive context-escape chain of
// Eq. (5): exact states answer directly; unobserved contexts pay the Eq. (6)
// escape penalty and recurse on their suffix. This is the generative
// probability used inside the MVMM mixture.
func (m *VMM) ProbEscape(ctx query.Seq, q query.ID) float64 {
	if len(ctx) == 0 {
		return m.root.SmoothedP(q, m.cfg.Vocab)
	}
	var arr [matchKeyBuf]byte
	b := appendSeqKey(arr[:0], ctx)
	return m.probEscapeKey(b, q)
}

// probEscapeKey is the escape-chain recursion over the pre-encoded context
// key: each level drops the oldest query (the leading 4 key bytes), so the
// whole chain reuses one buffer and performs zero-copy map lookups.
func (m *VMM) probEscapeKey(b []byte, q query.ID) float64 {
	if len(b) == 0 {
		return m.root.SmoothedP(q, m.cfg.Vocab)
	}
	if d, ok := m.nodes[string(b)]; ok && d.Total() > 0 {
		return d.SmoothedP(q, m.cfg.Vocab)
	}
	return m.esc.escapeKey(b) * m.probEscapeKey(b[4:], q)
}

// GenProb returns the escape-chain generative probability of an entire
// query sequence per Eq. (3): Π_i P̂(q_i | [q_1..q_{i-1}]), with the first
// query given (footnote 3).
func (m *VMM) GenProb(s query.Seq) float64 {
	p := 1.0
	for i := 1; i < len(s); i++ {
		p *= m.ProbEscape(s[:i], s[i])
	}
	return p
}

// Covers implements model.Predictor.
func (m *VMM) Covers(ctx query.Seq) bool {
	if len(ctx) == 0 {
		return false
	}
	_, _, ok := m.MatchState(ctx)
	return ok
}

var _ model.Predictor = (*VMM)(nil)
