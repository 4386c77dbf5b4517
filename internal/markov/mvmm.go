package markov

import (
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/textutil"
)

// MVMMOptions controls mixture construction and weight learning.
type MVMMOptions struct {
	// TrainSample caps the number of (most frequent) aggregated sessions
	// used as the X_T sample when learning σ. 0 defaults to 2000.
	TrainSample int
	// NewtonIters bounds the Eq. (10) iterations. 0 defaults to 30.
	NewtonIters int
	// FixedSigma, when positive, skips σ learning and gives every
	// component the same Gaussian width — the ablation baseline for the
	// learned Eq. (9) weights.
	FixedSigma float64
}

func (o MVMMOptions) withDefaults() MVMMOptions {
	if o.TrainSample <= 0 {
		o.TrainSample = 2000
	}
	if o.NewtonIters <= 0 {
		o.NewtonIters = 30
	}
	return o
}

// MVMM is the paper's Mixture Variable Memory Markov model (Sec. IV.C):
// a linearly weighted combination of K VMM components with per-component
// Gaussian weights over the edit distance between the online user context
// and each component's best-matching state (Eq. 4), with the σ parameters
// learned by minimising the KL redundancy (Eqs. 7–10). The components are
// ε-views of one suffix trie, built once.
type MVMM struct {
	t     *pst
	comps []*VMM
	sigma []float64
	vocab int
}

// DefaultEpsilons reproduces the paper's experimental mixture: eleven VMM
// components with ε ∈ {0.0, 0.01, ..., 0.1}.
func DefaultEpsilons() []float64 {
	eps := make([]float64, 11)
	for i := range eps {
		eps[i] = float64(i) * 0.01
	}
	return eps
}

// NewMVMM trains the paper's mixture: one unbounded VMM per ε value, every
// one a view of a single suffix trie, then learns the mixing parameters
// from the training data itself. vocab <= 0 counts the sessions' queries.
func NewMVMM(sessions []query.Session, epsilons []float64, vocab int, opt MVMMOptions) *MVMM {
	opt = opt.withDefaults()
	if vocab <= 0 {
		vocab = guessVocab(sessions)
	}
	t := growPST(sessions, VMMConfig{Vocab: vocab})
	m := &MVMM{t: t, comps: make([]*VMM, len(epsilons)), vocab: vocab}
	for i, e := range epsilons {
		m.comps[i] = t.view(e)
	}
	if opt.FixedSigma > 0 {
		m.sigma = make([]float64, len(m.comps))
		for i := range m.sigma {
			m.sigma[i] = opt.FixedSigma
		}
	} else {
		m.sigma = m.learnSigma(sessions, opt)
	}
	return m
}

// learnSigma builds the Eq. (9) objective from a sample of training
// sequences and maximises it with the Newton iteration.
func (m *MVMM) learnSigma(sessions []query.Session, opt MVMMOptions) []float64 {
	k := len(m.comps)
	sigma := make([]float64, k)
	for i := range sigma {
		sigma[i] = 1
	}
	// Sample: the most frequent multi-query sessions, whose empirical
	// probabilities dominate the redundancy integral.
	sample := make([]query.Session, 0, opt.TrainSample)
	sorted := sessions
	if !slices.IsSortedFunc(sorted, query.CompareSessions) {
		sorted = slices.Clone(sessions)
		query.SortSessions(sorted)
	}
	var mass uint64
	for _, s := range sorted {
		if len(s.Queries) < 2 {
			continue
		}
		sample = append(sample, s)
		mass += s.Count
		if len(sample) >= opt.TrainSample {
			break
		}
	}
	if len(sample) == 0 || mass == 0 {
		return sigma
	}
	obj := &mixObjective{
		pT: make([]float64, len(sample)),
		d:  make([][]int, len(sample)),
		pD: make([][]float64, len(sample)),
	}
	for t, s := range sample {
		obj.pT[t] = float64(s.Count) / float64(mass)
		obj.d[t] = make([]int, k)
		obj.pD[t] = make([]float64, k)
		for i, c := range m.comps {
			state, _, ok := c.MatchState(s.Queries)
			if ok {
				obj.d[t][i] = textutil.SuffixDistance(s.Queries, state)
			} else {
				obj.d[t][i] = len(s.Queries)
			}
			obj.maxD = max(obj.maxD, obj.d[t][i])
			obj.pD[t][i] = c.GenProb(s.Queries)
		}
	}
	return obj.NewtonMaximize(sigma, opt.NewtonIters)
}

// Name implements model.Predictor.
func (m *MVMM) Name() string { return "MVMM" }

// Components exposes the trained VMM components.
func (m *MVMM) Components() []*VMM { return m.comps }

// Sigmas returns the learned Gaussian widths, one per component.
func (m *MVMM) Sigmas() []float64 { return append([]float64(nil), m.sigma...) }

// matchAll runs every component's MatchState exactly once, returning each
// component's matched-state distribution (nil when uncovered) alongside the
// normalised Eq. (4) mixing weights. Predict and Prob both consume the same
// single walk — previously each re-matched all K components a second time.
func (m *MVMM) matchAll(ctx query.Seq) ([]*Dist, []float64) {
	dists := make([]*Dist, len(m.comps))
	w := make([]float64, len(m.comps))
	var sum float64
	for i, c := range m.comps {
		state, d, ok := c.MatchState(ctx)
		if !ok {
			continue
		}
		dists[i] = d
		dist := float64(textutil.SuffixDistance(ctx, state))
		w[i] = gaussian(dist, m.sigma[i])
		sum += w[i]
	}
	if sum > 0 {
		for i := range w {
			w[i] /= sum
		}
	}
	return dists, w
}

// weights computes the normalised Eq. (4) mixing weights for a context:
// each component's Gaussian density at the edit distance between the context
// and that component's matched state. Components that cannot match at all
// receive zero weight.
func (m *MVMM) weights(ctx query.Seq) []float64 {
	_, w := m.matchAll(ctx)
	return w
}

// Predict implements model.Predictor: pool each component's candidates from
// its matched state, score every candidate by the weighted escape-chain
// generative probability Σ_D w_D · P̂_D(q|ctx), and re-rank (Sec. IV.C.3).
func (m *MVMM) Predict(ctx query.Seq, topN int) []model.Prediction {
	if len(ctx) == 0 || topN <= 0 {
		return nil
	}
	dists, w := m.matchAll(ctx)
	cands := make(map[query.ID]struct{})
	any := false
	for i := range m.comps {
		if w[i] == 0 || dists[i] == nil {
			continue
		}
		any = true
		for _, p := range dists[i].TopN(topN * 4) {
			cands[p.Query] = struct{}{}
		}
	}
	if !any || len(cands) == 0 {
		return nil
	}
	out := make([]model.Prediction, 0, len(cands))
	for q := range cands {
		var score float64
		for i, c := range m.comps {
			if w[i] == 0 {
				continue
			}
			score += w[i] * c.ProbEscape(ctx, q)
		}
		out = append(out, model.Prediction{Query: q, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Query < out[j].Query
	})
	if len(out) > topN {
		out = out[:topN]
	}
	return out
}

// Prob implements model.Predictor as the weighted mixture of the
// components' escape-chain probabilities (Eq. 2).
func (m *MVMM) Prob(ctx query.Seq, q query.ID) float64 {
	w := m.weights(ctx)
	var p float64
	for i, c := range m.comps {
		if w[i] == 0 {
			continue
		}
		p += w[i] * c.ProbEscape(ctx, q)
	}
	return p
}

// Covers implements model.Predictor. Coverage equals that of any single
// component (and of Adjacency) thanks to the suffix partial-match strategy
// (Fig. 10's observation).
func (m *MVMM) Covers(ctx query.Seq) bool {
	for _, c := range m.comps {
		if c.Covers(ctx) {
			return true
		}
	}
	return false
}

// UnionNodes returns the number of distinct PST nodes across all components
// — the paper's single-tree deployment estimate for Table VII ("we can
// actually combine all into a single PST"). internal/compiled realises that
// estimate as the flat trie, and Table VII's compiled rows report its exact
// arrays' and CPS5 blob's bytes exactly (a test pins them to ExactBytes and
// len(AppendFlat5)); this count remains the node-level view.
func (m *MVMM) UnionNodes() int {
	n := 0
	for id := 1; id < len(m.t.nodes); id++ {
		if m.views(int32(id)) != 0 {
			n++
		}
	}
	return n
}

// views returns the set of components holding node id, bit i for
// component i.
func (m *MVMM) views(id int32) uint64 {
	var mask uint64
	for i, c := range m.comps {
		if c.holds(id) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// ForEachNode visits every node of the mixture's one trie — every window
// of the training sessions up to WindowBound queries long — in ID order,
// the root (ID 0) excepted, so a parent is visited before its children. A
// node is the query sym prepended to its parent's context, with the Eq. (6)
// window counts occ and startOcc. Its followers d and the set mask of the
// components that store it as a state with evidence, bit i for component
// i, are nil and 0 unless some component does. compiled.Compile reads the
// trie through it; the mask is meaningful for at most 64 components.
func (m *MVMM) ForEachNode(f func(id, parent int32, sym query.ID, occ, startOcc uint64, d *Dist, mask uint64)) {
	for id := 1; id < len(m.t.nodes); id++ {
		n := &m.t.nodes[id]
		var mask uint64
		d := n.dist
		if d != nil && d.Total() > 0 {
			mask = m.views(int32(id))
		}
		if mask == 0 {
			d = nil
		}
		f(int32(id), n.parent, n.sym, n.occ, n.startOcc, d, mask)
	}
}

// WindowBound is the longest window the trie counts: the context bound D,
// or the longest training session when the trees are unbounded.
func (m *MVMM) WindowBound() int { return m.t.maxLen }

var _ model.Predictor = (*MVMM)(nil)
