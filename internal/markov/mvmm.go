package markov

import (
	"sort"
	"sync"

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
	// Parallel trains the component VMMs concurrently (the paper notes the
	// K models "can be independently trained in parallel").
	Parallel bool
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
// learned by minimising the KL redundancy (Eqs. 7–10).
type MVMM struct {
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

// NewMVMM trains a mixture over one VMM per config, then learns the mixing
// parameters from the training data itself. When every component shares the
// same context bound D (the usual case — the paper varies ε only), the
// stage-(a) candidate statistics and escape table are built once and shared
// across all K components, which keeps the K-fold training cost linear in
// the data.
func NewMVMM(sessions []query.Session, configs []VMMConfig, opt MVMMOptions) *MVMM {
	opt = opt.withDefaults()
	comps := make([]*VMM, len(configs))

	sharedD := len(configs) > 0
	for i := 1; i < len(configs); i++ {
		if configs[i].D != configs[0].D {
			sharedD = false
		}
	}
	train := func(i int, c *candidates) {
		cfg := configs[i]
		if cfg.Vocab <= 0 {
			cfg.Vocab = guessVocab(sessions)
		}
		if c != nil {
			comps[i] = growVMM(c, cfg)
			comps[i].freeze()
		} else {
			comps[i] = NewVMM(sessions, cfg)
		}
	}
	var shared *candidates
	if sharedD {
		shared = buildCandidates(sessions, configs[0].D)
		shared.freezeAll() // safe concurrent growth from shared statistics
	}
	if opt.Parallel {
		var wg sync.WaitGroup
		for i := range configs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				train(i, shared)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range configs {
			train(i, shared)
		}
	}
	vocab := 0
	for _, c := range comps {
		if c.cfg.Vocab > vocab {
			vocab = c.cfg.Vocab
		}
	}
	m := &MVMM{comps: comps, vocab: vocab}
	if opt.FixedSigma > 0 {
		m.sigma = make([]float64, len(comps))
		for i := range m.sigma {
			m.sigma[i] = opt.FixedSigma
		}
	} else {
		m.sigma = m.learnSigma(sessions, opt)
	}
	return m
}

// NewMVMMFromEpsilons is the convenience constructor matching the paper's
// setup: one unbounded VMM per ε value.
func NewMVMMFromEpsilons(sessions []query.Session, epsilons []float64, vocab int, opt MVMMOptions) *MVMM {
	configs := make([]VMMConfig, len(epsilons))
	for i, e := range epsilons {
		configs[i] = VMMConfig{Epsilon: e, Vocab: vocab}
	}
	return NewMVMM(sessions, configs, opt)
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
	sorted := append([]query.Session(nil), sessions...)
	query.SortSessions(sorted)
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
		d:  make([][]float64, len(sample)),
		pD: make([][]float64, len(sample)),
	}
	for t, s := range sample {
		obj.pT[t] = float64(s.Count) / float64(mass)
		obj.d[t] = make([]float64, k)
		obj.pD[t] = make([]float64, k)
		for i, c := range m.comps {
			state, _, ok := c.MatchState(s.Queries)
			if ok {
				obj.d[t][i] = float64(textutil.SuffixDistance(s.Queries, state))
			} else {
				obj.d[t][i] = float64(len(s.Queries))
			}
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
// estimate as the merged flat trie, and Table VII's compiled rows report
// the resulting CPS3/CPS5 blob bytes exactly (a test pins them to
// len(AppendFlat)); this count remains the node-level view.
func (m *MVMM) UnionNodes() int {
	union := make(map[string]struct{})
	for _, c := range m.comps {
		for k := range c.nodeKeys() {
			union[k] = struct{}{}
		}
	}
	return len(union)
}

var _ model.Predictor = (*MVMM)(nil)
