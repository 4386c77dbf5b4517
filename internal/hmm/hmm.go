// Package hmm implements the paper's named future-work extension
// (Sec. VI): a Hidden Markov Model over query sessions whose hidden states
// represent latent user intent ("an underlying semantic concept"). Queries
// are observations emitted by intent states; intent evolves by a Markov
// chain. Training is Baum-Welch (EM) over frequency-weighted sessions with
// per-step scaling; prediction marginalises the next observation over the
// posterior next-state distribution.
//
// The extension experiment (cmd/experiments -ext / the bench harness)
// answers the paper's open question — "it remains to be seen whether more
// sophisticated models can further raise the performance bar" — on the
// synthetic substrate.
package hmm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/model"
	"repro/internal/query"
)

// Config controls HMM training.
type Config struct {
	// States is the number of hidden intent states.
	States int
	// Iterations bounds the Baum-Welch EM iterations.
	Iterations int
	// Vocab is |Q|; observations are query IDs in [0, Vocab).
	Vocab int
	// Seed initialises the random parameter draw.
	Seed int64
	// MaxSessions caps the training sample (most frequent first) since EM
	// is the most expensive trainer in the repository. 0 = all.
	MaxSessions int
}

// DefaultConfig returns a small, fast intent model.
func DefaultConfig(vocab int) Config {
	return Config{States: 16, Iterations: 12, Vocab: vocab, Seed: 7, MaxSessions: 4000}
}

// Model is a trained discrete HMM.
type Model struct {
	k, vocab int
	pi       []float64   // initial state distribution, length k
	trans    [][]float64 // k×k state transitions
	emit     [][]float64 // k×vocab emission probabilities
	seen     []bool      // queries observed in training
	// topEmit caches each state's highest-emission queries for fast TopN.
	topEmit [][]query.ID
	// logLik records the per-iteration training log10-likelihood, for the
	// EM monotonicity guarantee (and its test).
	logLik []float64
}

// Train fits an HMM by Baum-Welch over aggregated sessions.
func Train(sessions []query.Session, cfg Config) (*Model, error) {
	if cfg.States < 1 || cfg.Vocab < 1 {
		return nil, fmt.Errorf("hmm: invalid config %+v", cfg)
	}
	if cfg.Iterations < 1 {
		cfg.Iterations = 1
	}
	sample := trainingSample(sessions, cfg.MaxSessions)
	m := &Model{k: cfg.States, vocab: cfg.Vocab, seen: make([]bool, cfg.Vocab)}
	for _, s := range sample {
		for _, q := range s.Queries {
			if int(q) < cfg.Vocab {
				m.seen[q] = true
			}
		}
	}
	m.randomInit(rand.New(rand.NewSource(cfg.Seed)))
	for it := 0; it < cfg.Iterations; it++ {
		ll := m.emStep(sample)
		m.logLik = append(m.logLik, ll)
		// Converged: relative improvement below 1e-6.
		if it > 0 && math.Abs(ll-m.logLik[it-1]) < 1e-6*(1+math.Abs(ll)) {
			break
		}
	}
	m.buildTopEmit(64)
	return m, nil
}

func trainingSample(sessions []query.Session, max int) []query.Session {
	multi := make([]query.Session, 0, len(sessions))
	for _, s := range sessions {
		if len(s.Queries) >= 2 {
			multi = append(multi, s)
		}
	}
	query.SortSessions(multi)
	if max > 0 && len(multi) > max {
		multi = multi[:max]
	}
	return multi
}

func (m *Model) randomInit(rng *rand.Rand) {
	m.pi = randDist(rng, m.k)
	m.trans = make([][]float64, m.k)
	m.emit = make([][]float64, m.k)
	for i := 0; i < m.k; i++ {
		m.trans[i] = randDist(rng, m.k)
		// Emissions start near-uniform over *seen* queries with jitter so
		// states can specialise; unseen queries get a tiny floor.
		row := make([]float64, m.vocab)
		var sum float64
		for q := range row {
			v := 1e-4
			if m.seen[q] {
				v = 1 + rng.Float64()
			}
			row[q] = v
			sum += v
		}
		for q := range row {
			row[q] /= sum
		}
		m.emit[i] = row
	}
}

func randDist(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	var sum float64
	for i := range d {
		d[i] = 0.5 + rng.Float64()
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

// emStep runs one scaled Baum-Welch iteration and returns the (weighted)
// log10-likelihood of the sample under the pre-update parameters.
func (m *Model) emStep(sample []query.Session) float64 {
	k := m.k
	piAcc := make([]float64, k)
	transAcc := make([][]float64, k)
	emitAcc := make([][]float64, k)
	for i := 0; i < k; i++ {
		transAcc[i] = make([]float64, k)
		emitAcc[i] = make([]float64, m.vocab)
	}
	var ll float64

	for _, s := range sample {
		obs := s.Queries
		w := float64(s.Count)
		T := len(obs)
		alpha, beta, scale := m.forwardBackward(obs)
		for t := 0; t < T; t++ {
			if scale[t] > 0 {
				ll += w * math.Log10(1/scale[t])
			}
		}
		// γ_t(i) ∝ α_t(i) β_t(i); with scaled α/β the product is already
		// normalised per t.
		for t := 0; t < T; t++ {
			q := int(obs[t])
			for i := 0; i < k; i++ {
				g := alpha[t][i] * beta[t][i]
				if t == 0 {
					piAcc[i] += w * g
				}
				if q < m.vocab {
					emitAcc[i][q] += w * g
				}
			}
		}
		// ξ_t(i,j) ∝ α_t(i) a_ij b_j(o_{t+1}) β_{t+1}(j) · c_{t+1}.
		for t := 0; t < T-1; t++ {
			q := int(obs[t+1])
			var b []float64
			if q < m.vocab {
				b = nil // use emit row below
			}
			_ = b
			for i := 0; i < k; i++ {
				ai := alpha[t][i]
				if ai == 0 {
					continue
				}
				for j := 0; j < k; j++ {
					e := m.emitProb(j, obs[t+1])
					xi := ai * m.trans[i][j] * e * beta[t+1][j] * scale[t+1]
					transAcc[i][j] += w * xi
				}
			}
		}
	}

	// M-step with small smoothing so no probability hits exactly zero.
	const eps = 1e-9
	normalizeInto(m.pi, piAcc, eps)
	for i := 0; i < k; i++ {
		normalizeInto(m.trans[i], transAcc[i], eps)
		normalizeInto(m.emit[i], emitAcc[i], eps)
	}
	return ll
}

func normalizeInto(dst, acc []float64, eps float64) {
	var sum float64
	for i := range acc {
		acc[i] += eps
		sum += acc[i]
	}
	if sum == 0 {
		return
	}
	for i := range acc {
		dst[i] = acc[i] / sum
	}
}

// emitProb returns b_i(q) with a uniform floor for out-of-vocabulary
// observations so unseen queries do not zero the whole forward pass.
func (m *Model) emitProb(state int, q query.ID) float64 {
	if int(q) < m.vocab {
		return m.emit[state][q]
	}
	return 1 / float64(m.vocab)
}

// forwardBackward returns scaled α, β and the per-step scale factors c_t
// (Rabiner's convention: ĉα sums to 1 per step; c_t = 1/Σ unscaled).
func (m *Model) forwardBackward(obs query.Seq) (alpha, beta [][]float64, scale []float64) {
	T := len(obs)
	k := m.k
	alpha = make([][]float64, T)
	beta = make([][]float64, T)
	scale = make([]float64, T)
	for t := 0; t < T; t++ {
		alpha[t] = make([]float64, k)
		beta[t] = make([]float64, k)
	}
	// Forward.
	var sum float64
	for i := 0; i < k; i++ {
		alpha[0][i] = m.pi[i] * m.emitProb(i, obs[0])
		sum += alpha[0][i]
	}
	scale[0] = safeInv(sum)
	for i := 0; i < k; i++ {
		alpha[0][i] *= scale[0]
	}
	for t := 1; t < T; t++ {
		sum = 0
		for j := 0; j < k; j++ {
			var a float64
			for i := 0; i < k; i++ {
				a += alpha[t-1][i] * m.trans[i][j]
			}
			alpha[t][j] = a * m.emitProb(j, obs[t])
			sum += alpha[t][j]
		}
		scale[t] = safeInv(sum)
		for j := 0; j < k; j++ {
			alpha[t][j] *= scale[t]
		}
	}
	// Backward, sharing the forward scales.
	for i := 0; i < k; i++ {
		beta[T-1][i] = scale[T-1]
	}
	for t := T - 2; t >= 0; t-- {
		for i := 0; i < k; i++ {
			var b float64
			for j := 0; j < k; j++ {
				b += m.trans[i][j] * m.emitProb(j, obs[t+1]) * beta[t+1][j]
			}
			beta[t][i] = b * scale[t]
		}
	}
	// Normalise γ denominators: α_t β_t / Σ_i α_t β_t. The shared-scale
	// convention makes Σ_i α_t(i)β_t(i) = scale[t]·P-ish; renormalise
	// exactly to keep the M-step well-conditioned.
	for t := 0; t < T; t++ {
		var g float64
		for i := 0; i < k; i++ {
			g += alpha[t][i] * beta[t][i]
		}
		if g > 0 {
			for i := 0; i < k; i++ {
				beta[t][i] /= g
			}
		}
	}
	return alpha, beta, scale
}

func safeInv(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return 1 / x
}

func (m *Model) buildTopEmit(cap int) {
	m.topEmit = make([][]query.ID, m.k)
	for i := 0; i < m.k; i++ {
		ids := make([]query.ID, 0, m.vocab)
		for q := 0; q < m.vocab; q++ {
			if m.seen[q] {
				ids = append(ids, query.ID(q))
			}
		}
		sort.Slice(ids, func(a, b int) bool {
			ea, eb := m.emit[i][ids[a]], m.emit[i][ids[b]]
			if ea != eb {
				return ea > eb
			}
			return ids[a] < ids[b]
		})
		if len(ids) > cap {
			ids = ids[:cap]
		}
		m.topEmit[i] = ids
	}
}

// nextStateDist returns P(z_{t+1} | context) from a scaled forward pass.
func (m *Model) nextStateDist(ctx query.Seq) []float64 {
	alpha := make([]float64, m.k)
	var sum float64
	for i := 0; i < m.k; i++ {
		alpha[i] = m.pi[i] * m.emitProb(i, ctx[0])
		sum += alpha[i]
	}
	norm(alpha, sum)
	tmp := make([]float64, m.k)
	for t := 1; t < len(ctx); t++ {
		sum = 0
		for j := 0; j < m.k; j++ {
			var a float64
			for i := 0; i < m.k; i++ {
				a += alpha[i] * m.trans[i][j]
			}
			tmp[j] = a * m.emitProb(j, ctx[t])
			sum += tmp[j]
		}
		copy(alpha, tmp)
		norm(alpha, sum)
	}
	next := make([]float64, m.k)
	for j := 0; j < m.k; j++ {
		var p float64
		for i := 0; i < m.k; i++ {
			p += alpha[i] * m.trans[i][j]
		}
		next[j] = p
	}
	return next
}

func norm(v []float64, sum float64) {
	if sum <= 0 {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// Name implements model.Predictor.
func (m *Model) Name() string { return fmt.Sprintf("HMM (%d states)", m.k) }

// Covers implements model.Predictor: the context's last query must have been
// observed in training.
func (m *Model) Covers(ctx query.Seq) bool {
	if len(ctx) == 0 {
		return false
	}
	last := int(ctx.Last())
	return last < m.vocab && m.seen[last]
}

// minStateWeight prunes Predict's candidate pool to the next states carrying
// at least this much posterior mass.
const minStateWeight = 0.02

// Predict implements model.Predictor: pool each probable next state's top
// emissions and score them by the exact marginal Σ_z P(z|ctx)·b_z(q), ranked
// by descending score, ascending ID.
func (m *Model) Predict(ctx query.Seq, topN int) []model.Prediction {
	if topN <= 0 || !m.Covers(ctx) {
		return nil
	}
	next := m.nextStateDist(ctx)
	var cands []model.Prediction
	seen := make(map[query.ID]bool)
	for i, p := range next {
		if p < minStateWeight {
			continue
		}
		for _, q := range m.topEmit[i][:min(4*topN, len(m.topEmit[i]))] {
			if seen[q] {
				continue
			}
			seen[q] = true
			var score float64
			for j, w := range next {
				score += w * m.emit[j][q]
			}
			cands = append(cands, model.Prediction{Query: q, Score: score})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Score != cands[b].Score {
			return cands[a].Score > cands[b].Score
		}
		return cands[a].Query < cands[b].Query
	})
	if len(cands) > topN {
		cands = cands[:topN]
	}
	return cands
}

// Prob implements model.Predictor: the exact next-observation marginal.
func (m *Model) Prob(ctx query.Seq, q query.ID) float64 {
	if len(ctx) == 0 || int(q) >= m.vocab {
		return 0
	}
	next := m.nextStateDist(ctx)
	var p float64
	for i, w := range next {
		p += w * m.emit[i][q]
	}
	return p
}

// LogLikelihoods returns the EM training trajectory (log10 likelihood per
// iteration) — non-decreasing by the EM guarantee.
func (m *Model) LogLikelihoods() []float64 {
	return append([]float64(nil), m.logLik...)
}

// States returns the number of hidden states.
func (m *Model) States() int { return m.k }

var _ model.Predictor = (*Model)(nil)
