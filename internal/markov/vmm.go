package markov

import (
	"fmt"
	"math"

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
// user context present in the tree (O(D) online, Sec. IV.B.2). A VMM is an
// ε-view of a grown candidate tree: the candidates whose inclusion threshold
// θ exceeds its ε (see pst). Mixture components are views of one tree.
type VMM struct {
	cfg   VMMConfig
	t     *pst
	lo    float64 // a candidate is stored iff θ > lo (or θ = +Inf); -Inf when ε <= 0
	nodes int     // stored nodes, root excluded
	depth int     // deepest stored node
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
	return growPST(sessions, cfg).view(cfg.Epsilon)
}

// pst is the candidate tree of PST stages (a) and (b), grown once per
// training run (the paper's Table VII: the K trees "can actually combine all
// into a single PST"). Every candidate carries its inclusion threshold θ,
// the larger of its own KL against its parent and the θ of every extension,
// so the tree grown with threshold ε — the supported candidates that diverge
// by more than ε, closed under suffixes — is exactly {k : θ(k) > ε}. This is
// the growth rule of Ron, Singer & Tishby's prediction suffix trees ("The
// Power of Amnesia", 1996) with the threshold test deferred to the view.
type pst struct {
	cfg   VMMConfig        // D, MinSupport and Vocab; Epsilon belongs to each view
	index map[string]int32 // suffix key (Seq.Key layout) -> candidate
	keys  []string         // by candidate, in first-seen order
	dists []*Dist          // follower counts, by candidate
	theta []float64        // inclusion threshold θ, by candidate
	root  *Dist            // the empty-context prior (node e)
	esc   *EscapeTable
}

// growPST runs stage (a) over the training sessions with cfg's context bound
// D (0 = unbounded), then gives every candidate its θ in one deepest-first
// pass. A candidate under MinSupport seeds nothing (own θ -Inf) but is still
// kept by closure when an extension is; a supported depth-1 candidate always
// seeds (own θ +Inf).
func growPST(sessions []query.Session, cfg VMMConfig) *pst {
	t := &pst{cfg: cfg, index: make(map[string]int32), root: NewDist()}
	d := cfg.D
	maxSess := 0
	for _, s := range sessions {
		l := len(s.Queries)
		if l > maxSess {
			maxSess = l
		}
		for i := 1; i < l; i++ {
			next := s.Queries[i]
			t.root.Add(next, s.Count)
			limit := i
			if d > 0 && limit > d {
				limit = d
			}
			for k := 1; k <= limit; k++ {
				key := s.Queries[i-k : i].Key()
				id, ok := t.index[key]
				if !ok {
					id = int32(len(t.dists))
					t.index[key] = id
					t.keys = append(t.keys, key)
					t.dists = append(t.dists, NewDist())
				}
				t.dists[id].Add(next, s.Count)
			}
		}
		// The root prior also counts first queries so that P(q|e) reflects
		// the marginal query distribution (Fig. 3's node e).
		if l > 0 {
			t.root.Add(s.Queries[0], s.Count)
		}
	}
	escLen := d
	if escLen <= 0 {
		escLen = maxSess
	}
	t.esc = NewEscapeTable(sessions, escLen)

	t.root.Freeze()
	plogp := make([]float64, len(t.keys)) // Σ p̃ log10 p̃ per parent, for klSmoothedFast
	for i := range plogp {
		plogp[i] = math.NaN()
	}
	t.theta = make([]float64, len(t.keys))
	for id, key := range t.keys {
		dist := t.dists[id]
		dist.Freeze()
		switch {
		case dist.Total() < cfg.MinSupport:
			t.theta[id] = math.Inf(-1)
		case len(key) == 4:
			t.theta[id] = math.Inf(1)
		default:
			p := t.index[key[4:]] // drop the oldest query
			if math.IsNaN(plogp[p]) {
				plogp[p] = sumPLogP(t.dists[p])
			}
			t.theta[id] = klSmoothedFast(t.dists[p], dist, cfg.Vocab, plogp[p])
		}
	}
	// A suffix is always seen before its extensions, so every parent's ID is
	// below its children's: walking IDs downward raises each θ to its
	// extensions' before it is passed on.
	for id := len(t.keys) - 1; id >= 0; id-- {
		if key := t.keys[id]; len(key) > 4 {
			p := t.index[key[4:]]
			t.theta[p] = max(t.theta[p], t.theta[id])
		}
	}
	return t
}

// view returns the tree grown with threshold eps: ε <= 0 keeps every
// candidate a supported one extends (the full tree), ε = +Inf only the
// depth-1 seeds (the Adjacency 2-gram).
func (t *pst) view(eps float64) *VMM {
	m := &VMM{cfg: t.cfg, t: t, lo: eps}
	m.cfg.Epsilon = eps
	if eps <= 0 {
		m.lo = math.Inf(-1)
	}
	for id, key := range t.keys {
		if m.holds(int32(id)) {
			m.nodes++
			m.depth = max(m.depth, len(key)/4)
		}
	}
	return m
}

// holds reports whether candidate id is a node of the view. A supported
// depth-1 candidate (θ = +Inf) is one even at ε = +Inf.
func (m *VMM) holds(id int32) bool {
	th := m.t.theta[id]
	return th > m.lo || th == math.Inf(1)
}

// state returns the view's node for the key, when it holds one with
// prediction evidence.
func (m *VMM) state(key []byte) (*Dist, bool) {
	id, ok := m.t.index[string(key)]
	if !ok || !m.holds(id) {
		return nil, false
	}
	d := m.t.dists[id]
	return d, d.Total() > 0
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
// per-parent cache that makes klSmoothedFast O(child support). It sums in
// the distribution's ranked order, as klSmoothedFast does: a float sum in
// map order gives other bits from call to call, and a KL that sits on an ε
// would keep or drop its candidate at random.
func sumPLogP(d *Dist) float64 {
	if d.total == 0 {
		return 0
	}
	var s float64
	tot := float64(d.total)
	for _, q := range d.order() {
		p := float64(d.counts[q]) / tot
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
	for _, q := range child.order() {
		c := float64(child.counts[q]) / ctot / zc
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
// alongside the compiled model's exact arrays and the CPS5 serving blob the
// deployment actually maps; the node count is the Sec. V.F.2 size quote.
func (m *VMM) NumNodes() int { return m.nodes }

// Depth returns the deepest stored context length.
func (m *VMM) Depth() int { return m.depth }

// Root returns the empty-context prior distribution (node e).
func (m *VMM) Root() *Dist { return m.t.root }

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
		if d, ok := m.state(b[len(b)-4*k:]); ok {
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
// 1/|Q| smoothing. Uncovered contexts, the empty one included, return 0; the
// root prior is ProbEscape's.
func (m *VMM) Prob(ctx query.Seq, q query.ID) float64 {
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
		return m.t.root.SmoothedP(q, m.cfg.Vocab)
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
		return m.t.root.SmoothedP(q, m.cfg.Vocab)
	}
	if d, ok := m.state(b); ok {
		return d.SmoothedP(q, m.cfg.Vocab)
	}
	return m.t.esc.escapeKey(b) * m.probEscapeKey(b[4:], q)
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
